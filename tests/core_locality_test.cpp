// The locality engine: owner-mapped (kAdaptive) distribution, access
// profiling, and deterministic block migration at global commits.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "core/ppm.hpp"

namespace ppm {
namespace {

PpmConfig cfg(int nodes, int cores = 2) {
  PpmConfig c;
  c.machine.nodes = nodes;
  c.machine.cores_per_node = cores;
  // Small migration blocks so modest arrays span many blocks per node.
  c.runtime.read_block_bytes = 64;
  return c;
}

// ---------------------------------------------------------------------------
// Owner-map round trips
// ---------------------------------------------------------------------------

TEST(OwnerMap, RoundTripsAllDistributions) {
  // owner_of/local_of must name every element exactly once within its
  // owner's storage, for every distribution, including uneven sizes,
  // fewer elements than nodes, and a single element.
  for (const int nodes : {1, 2, 3, 4, 5}) {
    for (const uint64_t n : {uint64_t{1}, uint64_t{3}, uint64_t{5},
                             uint64_t{23}, uint64_t{64}, uint64_t{129}}) {
      for (const auto dist : {Distribution::kBlock, Distribution::kCyclic,
                              Distribution::kAdaptive}) {
        run(cfg(nodes, 1), [&](Env& env) {
          auto a = env.global_array<int64_t>(n, dist);
          const auto& rec = env.runtime().array(a.id());
          // (owner, local) pairs must be unique: two elements sharing a
          // storage cell would corrupt each other.
          std::set<std::pair<int, uint64_t>> cells;
          for (uint64_t i = 0; i < n; ++i) {
            const int o = rec.owner_of(i);
            ASSERT_GE(o, 0);
            ASSERT_LT(o, nodes);
            ASSERT_EQ(o, a.owner(i));
            const uint64_t l = rec.local_of(i);
            ASSERT_LT(l, rec.owner_len(o))
                << "element " << i << " dist " << static_cast<int>(dist);
            ASSERT_TRUE(cells.emplace(o, l).second)
                << "elements collide in owner " << o << " cell " << l;
          }
        });
      }
    }
  }
}

TEST(OwnerMap, AdaptiveImmediateAccessOutsidePhases) {
  // Outside phases, locally owned elements of an owner-mapped array are
  // immediately readable and writable, like any other distribution.
  run(cfg(3, 1), [&](Env& env) {
    const uint64_t n = 40;
    auto a = env.global_array<int64_t>(n, Distribution::kAdaptive);
    for (uint64_t i = 0; i < n; ++i) {
      if (a.owner(i) == env.node_id()) a.set(i, static_cast<int64_t>(7 * i));
    }
    env.barrier();
    auto vps = env.ppm_do(1);
    vps.global_phase([&](Vp&) {
      for (uint64_t i = 0; i < n; ++i) {
        EXPECT_EQ(a.get(i), static_cast<int64_t>(7 * i)) << "element " << i;
      }
    });
  });
}

// ---------------------------------------------------------------------------
// Distribution equivalence and migration transparency
// ---------------------------------------------------------------------------

// A skewed-access phase program: every node's VPs repeatedly read the
// chunk of `src` initially owned by the right neighbour (remote under the
// initial layout, so the planner has blocks worth moving toward their
// readers) and accumulate into their own elements of `out`. One mid-run
// round also writes `src` itself, so deferred writes must land correctly
// on blocks that have already migrated. Returns the logical contents of
// both arrays — which must not depend on src's distribution.
std::vector<int64_t> run_program(const PpmConfig& c, Distribution dist,
                                 RunResult* result = nullptr) {
  const uint64_t n = 24 * 16;  // 48 blocks of 8 int64s at 64-byte blocks
  std::vector<int64_t> content;
  const RunResult r = run(c, [&](Env& env) {
    auto src = env.global_array<int64_t>(n, dist);
    auto out = env.global_array<int64_t>(n, Distribution::kBlock);
    const auto nodes = static_cast<uint64_t>(env.node_count());
    const auto me = static_cast<uint64_t>(env.node_id());
    const uint64_t k = n / nodes + (me < n % nodes ? 1 : 0);
    const uint64_t shift = n / nodes;  // the next node's initial chunk
    auto vps = env.ppm_do(k);
    vps.global_phase([&](Vp& vp) {
      const uint64_t i = vp.global_rank();
      src.set(i, static_cast<int64_t>(3 * i + 1));
    });
    for (int round = 0; round < 6; ++round) {
      vps.global_phase([&](Vp& vp) {
        const uint64_t i = vp.global_rank();
        out.add(i, src.get((i + shift) % n) % 1000);
        if (round == 3) src.add(i, static_cast<int64_t>(i % 5));
      });
    }
    vps.global_phase([&](Vp& vp) {
      if (env.node_id() == 0 && vp.node_rank() == 0) {
        for (uint64_t i = 0; i < n; ++i) content.push_back(src.get(i));
        for (uint64_t i = 0; i < n; ++i) content.push_back(out.get(i));
      }
    });
  });
  if (result != nullptr) *result = r;
  return content;
}

TEST(Migration, ContentsMatchStaticLayoutsAndBlocksMove) {
  for (const int nodes : {2, 3, 4}) {
    const auto blocked = run_program(cfg(nodes), Distribution::kBlock);
    const auto cyclic = run_program(cfg(nodes), Distribution::kCyclic);
    PpmConfig adaptive = cfg(nodes);
    adaptive.runtime.adaptive_distribution = true;
    RunResult r;
    const auto moved = run_program(adaptive, Distribution::kAdaptive, &r);
    // Bit-identical logical contents under every layout, static or moving.
    EXPECT_EQ(blocked, cyclic) << nodes << " nodes";
    EXPECT_EQ(blocked, moved) << nodes << " nodes";
    // The skewed access pattern must actually trigger migration.
    EXPECT_GT(r.blocks_migrated, 0u) << nodes << " nodes";
    EXPECT_GT(r.migration_bytes, 0u) << nodes << " nodes";
    EXPECT_GT(r.remote_to_local_conversions, 0u) << nodes << " nodes";
  }
}

TEST(Migration, SchedulePolicyDoesNotChangeThePlan) {
  // A node's read-epoch counter counts each block once per epoch, however
  // its VPs interleave, so it is identical under any VP-to-core schedule
  // — and with it the migration plan and the traffic it saves. Static vs
  // dynamic scheduling must agree on the counters, not just on contents.
  auto run_sched = [&](SchedulePolicy sched) {
    PpmConfig c = cfg(3, 3);
    c.runtime.adaptive_distribution = true;
    c.runtime.schedule = sched;
    RunResult r;
    auto content = run_program(c, Distribution::kAdaptive, &r);
    return std::pair(content, r.blocks_migrated);
  };
  const auto [static_content, static_moves] =
      run_sched(SchedulePolicy::kStatic);
  const auto [dynamic_content, dynamic_moves] =
      run_sched(SchedulePolicy::kDynamic);
  EXPECT_EQ(static_content, dynamic_content);
  EXPECT_EQ(static_moves, dynamic_moves);
  EXPECT_GT(static_moves, 0u);
}

TEST(Migration, SkewedAccessSavesNetworkBytes) {
  // The acceptance ablation in miniature: under a read-skewed program
  // whose block payloads dominate the planner's own counter exchange,
  // adaptive placement must strictly cut wire traffic. Blocks are sized
  // so one block fetch outweighs a planning round's share of overhead.
  auto traffic = [&](bool adaptive_on) {
    PpmConfig c = cfg(4);
    c.runtime.read_block_bytes = 512;  // 64 int64s per migration block
    c.runtime.adaptive_distribution = adaptive_on;
    const uint64_t n = 64 * 48;  // 48 blocks, 12 per node initially
    RunResult r = run(c, [&](Env& env) {
      auto a = env.global_array<int64_t>(n, Distribution::kAdaptive);
      const auto nodes = static_cast<uint64_t>(env.node_count());
      const uint64_t shift = n / nodes;
      auto vps = env.ppm_do(n / nodes);
      vps.global_phase([&](Vp& vp) {
        a.set(vp.global_rank(), static_cast<int64_t>(vp.global_rank()));
      });
      for (int round = 0; round < 6; ++round) {
        vps.global_phase([&](Vp& vp) {
          const uint64_t i = vp.global_rank();
          (void)a.get((i + shift) % n);
        });
      }
    });
    if (adaptive_on) {
      EXPECT_GT(r.blocks_migrated, 0u);
    } else {
      EXPECT_EQ(r.blocks_migrated, 0u);
    }
    return r.network_bytes;
  };
  EXPECT_LT(traffic(true), traffic(false));
}

// ---------------------------------------------------------------------------
// The profile's unit: read-epochs through the block cache
// ---------------------------------------------------------------------------

TEST(Migration, EveryNodeReadingEveryBlockMovesNothing) {
  // A reader pays one block fetch per epoch however many elements it
  // reads. When every node reads every block in every epoch, no move
  // saves a fetch, so none may happen — even though node 0 reads 64
  // times the elements of any other node.
  PpmConfig c = cfg(4);
  c.runtime.adaptive_distribution = true;
  const uint64_t n = 24 * 16;  // 48 blocks of 8 int64s, 12 per node
  const RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<int64_t>(n, Distribution::kAdaptive);
    const bool heavy = env.node_id() == 0;
    auto vps = env.ppm_do(1);
    for (int round = 0; round < 4; ++round) {
      vps.global_phase([&](Vp&) {
        // Node 0: every element 8 times. The others: one per block.
        for (int rep = 0; rep < (heavy ? 8 : 1); ++rep) {
          for (uint64_t i = 0; i < n; i += heavy ? 1 : 8) (void)a.get(i);
        }
      });
    }
  });
  EXPECT_EQ(r.blocks_migrated, 0u);
  EXPECT_EQ(r.remote_to_local_conversions, 0u);
}

TEST(Migration, RemoteWritesAloneMoveNothing) {
  // A remote write is one streamed record that never stalls a VP, so
  // writes alone do not price a move: each node accumulating into the
  // other's half leaves every block with its owner.
  PpmConfig c = cfg(2);
  c.runtime.adaptive_distribution = true;
  const uint64_t n = 24 * 8;  // 24 blocks of 8 int64s, 12 per node
  const uint64_t half = n / 2;
  std::vector<int64_t> content;
  const RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<int64_t>(n, Distribution::kAdaptive);
    auto vps = env.ppm_do(half);
    for (int round = 0; round < 6; ++round) {
      vps.global_phase([&](Vp& vp) {
        a.add((vp.global_rank() + half) % n, 1);
      });
    }
    if (env.node_id() == 0) content = a.gather(std::vector<uint64_t>{0, n - 1});
    env.barrier();
  });
  EXPECT_EQ(r.blocks_migrated, 0u);
  EXPECT_EQ(content, (std::vector<int64_t>{6, 6}));
}

TEST(Migration, FinalGatherMovesNothing) {
  // A gather fetches elements, not blocks: collecting the whole array on
  // node 0 in one VP — the usual last phase of a program — must not pull
  // node 0's free slots' worth of blocks over at its commit.
  PpmConfig c = cfg(4);
  c.runtime.adaptive_distribution = true;
  const uint64_t n = 24 * 16;  // 48 blocks of 8 int64s, 12 per node
  std::vector<int64_t> content;
  const RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<int64_t>(n, Distribution::kAdaptive);
    auto vps = env.ppm_do(n / static_cast<uint64_t>(env.node_count()));
    vps.global_phase([&](Vp& vp) {
      a.set(vp.global_rank(), 3 * static_cast<int64_t>(vp.global_rank()));
    });
    std::vector<uint64_t> all(n);
    for (uint64_t i = 0; i < n; ++i) all[i] = i;
    vps.global_phase([&](Vp& vp) {
      if (env.node_id() == 0 && vp.node_rank() == 0) content = a.gather(all);
    });
  });
  EXPECT_EQ(r.blocks_migrated, 0u);
  ASSERT_EQ(content.size(), n);
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(content[i], 3 * static_cast<int64_t>(i)) << "element " << i;
  }
}

TEST(Migration, ExplicitRebalanceRunsOneShot) {
  // adaptive_distribution off: the layout stays put until the program
  // asks, then one planning round runs at the next global commit.
  const uint64_t n = 24 * 8;
  std::vector<int64_t> content;
  RunResult r;
  r = run(cfg(2), [&](Env& env) {
    auto a = env.global_array<int64_t>(n, Distribution::kAdaptive);
    const uint64_t half = n / 2;
    auto vps = env.ppm_do(half);
    vps.global_phase([&](Vp& vp) {
      a.set(vp.global_rank(), static_cast<int64_t>(vp.global_rank()));
    });
    // Both nodes read only the other node's half to build counters; no
    // migration may happen without the hint.
    for (int round = 0; round < 2; ++round) {
      vps.global_phase([&](Vp& vp) {
        const uint64_t i = vp.global_rank();
        (void)a.get((i + half) % n);
      });
    }
    env.rebalance(a);  // collective hint: plan at the next global commit
    vps.global_phase([&](Vp& vp) {
      // Still read-only: the planning commit must see reads dominating.
      (void)a.get((vp.global_rank() + half) % n);
    });
    // Blocks have moved; a write-after-migration round must land its
    // deferred writes on the new owners.
    vps.global_phase([&](Vp& vp) {
      const uint64_t i = vp.global_rank();
      a.add(i, a.get((i + half) % n));
    });
    vps.global_phase([&](Vp& vp) {
      if (env.node_id() == 0 && vp.node_rank() == 0) {
        for (uint64_t i = 0; i < n; ++i) content.push_back(a.get(i));
      }
    });
  });
  EXPECT_GT(r.blocks_migrated, 0u);
  EXPECT_GT(r.remote_to_local_conversions, 0u);
  // Contents must equal the closed form: a[i] = i + ((i + half) % n).
  ASSERT_EQ(content.size(), n);
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(content[i], static_cast<int64_t>(i + (i + n / 2) % n))
        << "element " << i;
  }
}

TEST(Migration, ValidatorStaysLockstepClean) {
  // Migration planning folds into the lockstep fingerprint; identical
  // plans on every node must keep the sanitizer quiet.
  PpmConfig c = cfg(3);
  c.runtime.adaptive_distribution = true;
  c.runtime.validate_phases = true;
  RunResult r;
  run_program(c, Distribution::kAdaptive, &r);
  EXPECT_GT(r.blocks_migrated, 0u);
  EXPECT_EQ(r.check_report.lockstep_mismatches, 0u);
  EXPECT_EQ(r.check_report.set_set_conflicts, 0u);
  EXPECT_EQ(r.check_report.mixed_op_conflicts, 0u);
}

TEST(Migration, AsyncReadsSeeMigratedBlocks) {
  // Reads outside global phases route through the owner map too; issued
  // after a migrating commit they must resolve against the new placement
  // and still see the committed values.
  PpmConfig c = cfg(2);
  c.runtime.adaptive_distribution = true;
  std::vector<int64_t> seen;
  run(c, [&](Env& env) {
    const uint64_t n = 24 * 8;
    auto a = env.global_array<int64_t>(n, Distribution::kAdaptive);
    const uint64_t half = n / 2;
    auto vps = env.ppm_do(half);
    vps.global_phase([&](Vp& vp) {
      a.set(vp.global_rank(), static_cast<int64_t>(vp.global_rank() * 2));
    });
    for (int round = 0; round < 3; ++round) {
      vps.global_phase([&](Vp& vp) {
        const uint64_t i = vp.global_rank();
        (void)a.get((i + half) % n);  // build skewed counters
      });
    }
    // By now every block has moved to its reader. Async reads from node 0
    // spread over both halves of the array.
    if (env.node_id() == 0) {
      seen.assign(4, -1);  // indexed by rank: core interleaving varies
      auto async = env.ppm_do_async(4);
      async.node_phase([&](Vp& vp) {
        const uint64_t i = vp.node_rank() * (n / 4) + 1;
        seen[vp.node_rank()] = a.get(i);
      });
    }
    env.barrier();
  });
  ASSERT_EQ(seen.size(), 4u);
  for (uint64_t j = 0; j < 4; ++j) {
    const uint64_t i = j * (24 * 8 / 4) + 1;
    EXPECT_EQ(seen[j], static_cast<int64_t>(i * 2)) << "element " << i;
  }
}

TEST(Migration, ReadRightAfterMigratingCommitSeesTheMovedBlock) {
  // An owner bumps its epoch only after its own migration round, so a read
  // that reaches it early — routed by the new owner map and tagged with
  // the next epoch — waits until the moved block is in place. Node 0 ships
  // block 0 to node 1 and, having no inbound block, reads it at once;
  // fabric jitter varies when node 1 applies the arrival.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    PpmConfig c = cfg(2);
    c.runtime.adaptive_distribution = true;
    c.machine.faults.delay_jitter = true;
    c.machine.faults.seed = seed;
    c.machine.faults.delay_probability = 0.5;
    c.machine.faults.max_extra_delay_ns = 100'000;
    int64_t seen = -1;
    int owner_after = -1;
    run(c, [&](Env& env) {
      const uint64_t n = 24 * 8;  // 24 migration blocks of 8 elements
      auto a = env.global_array<int64_t>(n, Distribution::kAdaptive);
      auto vps = env.ppm_do(n / 2);
      vps.global_phase([&](Vp& vp) {
        a.set(vp.global_rank(), 7 * static_cast<int64_t>(vp.global_rank()));
      });
      // Only node 1 touches block 0, so this commit moves it to node 1.
      vps.global_phase([&](Vp& vp) {
        if (env.node_id() == 1) (void)a.get(vp.node_rank() % 8);
      });
      if (env.node_id() == 0) {
        seen = a.get(5);
        owner_after = a.owner(5);
      }
      env.barrier();
    });
    EXPECT_EQ(owner_after, 1) << "seed " << seed;
    EXPECT_EQ(seen, 35) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ppm
