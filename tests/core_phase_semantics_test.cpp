// Semantics of the PPM phase model (DESIGN.md §5): phase-start reads,
// deferred writes, deterministic conflict resolution, accumulate ops,
// node vs global phases.
#include <gtest/gtest.h>

#include <vector>

#include "core/ppm.hpp"

namespace ppm {
namespace {

PpmConfig cfg(int nodes, int cores) {
  PpmConfig c;
  c.machine.nodes = nodes;
  c.machine.cores_per_node = cores;
  return c;
}

struct Shape {
  int nodes;
  int cores;
};

class PhaseSemantics : public ::testing::TestWithParam<Shape> {
 protected:
  PpmConfig config() const {
    return cfg(GetParam().nodes, GetParam().cores);
  }
};

TEST_P(PhaseSemantics, WritesTakeEffectAfterPhaseEnd) {
  std::vector<double> observed_during, observed_after;
  run(config(), [&](Env& env) {
    auto a = env.global_array<double>(64);
    auto vps = env.ppm_do(64 / static_cast<uint64_t>(env.node_count()));
    vps.global_phase([&](Vp& vp) { a.set(vp.global_rank(), 2.5); });
    vps.global_phase([&](Vp& vp) {
      // Value from the previous commit is visible...
      if (env.node_id() == 0 && vp.node_rank() == 0) {
        observed_during.push_back(a.get(0));
      }
      // ...and this phase's writes are not, even to our own element.
      a.set(vp.global_rank(), 9.0);
      if (env.node_id() == 0 && vp.node_rank() == 0) {
        observed_during.push_back(a.get(vp.global_rank()));
      }
    });
    vps.global_phase([&](Vp& vp) {
      if (env.node_id() == 0 && vp.node_rank() == 0) {
        observed_after.push_back(a.get(vp.global_rank()));
      }
    });
  });
  ASSERT_EQ(observed_during.size(), 2u);
  EXPECT_DOUBLE_EQ(observed_during[0], 2.5);  // previous phase committed
  EXPECT_DOUBLE_EQ(observed_during[1], 2.5);  // own write still deferred
  ASSERT_EQ(observed_after.size(), 1u);
  EXPECT_DOUBLE_EQ(observed_after[0], 9.0);
}

TEST_P(PhaseSemantics, ArraysStartZeroInitialized) {
  double sum = -1;
  run(config(), [&](Env& env) {
    auto a = env.global_array<double>(100);
    auto vps = env.ppm_do(env.node_id() == 0 ? 100 : 0);
    double local = 0;
    vps.global_phase([&](Vp& vp) { local += a.get(vp.node_rank()); });
    if (env.node_id() == 0) sum = local;
  });
  EXPECT_DOUBLE_EQ(sum, 0.0);
}

TEST_P(PhaseSemantics, EveryVpSeesConsistentSnapshot) {
  // Phase 1 writes f(i); phase 2 has every VP read every element and check.
  const uint64_t n = 96;
  int mismatches = -1;
  run(config(), [&](Env& env) {
    auto a = env.global_array<int64_t>(n);
    const uint64_t k = n / static_cast<uint64_t>(env.node_count());
    auto vps = env.ppm_do(k);
    vps.global_phase([&](Vp& vp) {
      a.set(vp.global_rank(), static_cast<int64_t>(vp.global_rank() * 3));
    });
    int bad = 0;
    vps.global_phase([&](Vp& vp) {
      (void)vp;
      for (uint64_t i = 0; i < n; ++i) {
        if (a.get(i) != static_cast<int64_t>(i * 3)) ++bad;
      }
    });
    if (env.node_id() == 0) mismatches = bad;
  });
  EXPECT_EQ(mismatches, 0);
}

TEST_P(PhaseSemantics, ConflictingSetsResolveToHighestVpRank) {
  // All VPs write to element 0: the highest global rank must win,
  // regardless of node count, scheduling, or arrival order.
  int64_t final_value = -1;
  uint64_t total_vps = 0;
  run(config(), [&](Env& env) {
    auto a = env.global_array<int64_t>(4);
    auto vps = env.ppm_do(37);  // deliberately not a multiple of cores
    total_vps = vps.global_size();
    vps.global_phase([&](Vp& vp) {
      a.set(0, static_cast<int64_t>(vp.global_rank()));
    });
    vps.global_phase([&](Vp& vp) {
      if (vp.global_rank() == 0) final_value = a.get(0);
    });
  });
  EXPECT_EQ(final_value, static_cast<int64_t>(total_vps - 1));
}

TEST_P(PhaseSemantics, SameVpLastProgramOrderWriteWins) {
  int64_t final_value = -1;
  run(config(), [&](Env& env) {
    auto a = env.global_array<int64_t>(1);
    auto vps = env.ppm_do(env.node_id() == env.node_count() - 1 ? 1 : 0);
    vps.global_phase([&](Vp& vp) {
      (void)vp;
      a.set(0, 5);
      a.set(0, 6);
      a.set(0, 7);
    });
    vps.global_phase([&](Vp& vp) {
      (void)vp;
      final_value = a.get(0);  // runs on the single VP that exists
    });
  });
  EXPECT_EQ(final_value, 7);
}

TEST_P(PhaseSemantics, AccumulateAddGathersAllContributions) {
  // Histogram-style conflict: every VP adds into a handful of bins.
  const uint64_t bins = 4;
  std::vector<int64_t> result;
  run(config(), [&](Env& env) {
    auto hist = env.global_array<int64_t>(bins);
    auto vps = env.ppm_do(25);
    vps.global_phase([&](Vp& vp) {
      hist.add(vp.global_rank() % bins, 1);
    });
    vps.global_phase([&](Vp& vp) {
      if (env.node_id() == 0 && vp.node_rank() == 0) {
        for (uint64_t b = 0; b < bins; ++b) result.push_back(hist.get(b));
      }
    });
  });
  ASSERT_EQ(result.size(), bins);
  const int64_t total_vps = 25 * GetParam().nodes;
  int64_t sum = 0;
  for (int64_t c : result) sum += c;
  EXPECT_EQ(sum, total_vps);
  // Bins differ by at most... every global rank r adds to r % 4.
  for (uint64_t b = 0; b < bins; ++b) {
    int64_t expect = 0;
    for (int64_t r = 0; r < total_vps; ++r) {
      if (static_cast<uint64_t>(r) % bins == b) ++expect;
    }
    EXPECT_EQ(result[b], expect) << "bin " << b;
  }
}

TEST_P(PhaseSemantics, MinMaxUpdates) {
  int64_t got_min = -1, got_max = -1;
  run(config(), [&](Env& env) {
    auto a = env.global_array<int64_t>(2);
    auto vps = env.ppm_do(10);
    vps.global_phase([&](Vp& vp) {
      if (vp.global_rank() == 0) {
        a.set(0, 1'000'000);  // seed the min slot high
      }
    });
    vps.global_phase([&](Vp& vp) {
      const auto r = static_cast<int64_t>(vp.global_rank());
      a.min_update(0, 100 - r);
      a.max_update(1, r * r);
    });
    vps.global_phase([&](Vp& vp) {
      if (vp.global_rank() == 0) {
        got_min = a.get(0);
        got_max = a.get(1);
      }
    });
  });
  const int64_t total = 10 * GetParam().nodes;
  EXPECT_EQ(got_min, 100 - (total - 1));
  EXPECT_EQ(got_max, (total - 1) * (total - 1));
}

TEST_P(PhaseSemantics, NodeSharedIsPerNodeInstance) {
  std::vector<int64_t> per_node_value;
  run(config(), [&](Env& env) {
    auto local = env.node_array<int64_t>(8);
    auto vps = env.ppm_do(8);
    // Each node's VPs write their own node id into the node's instance.
    vps.node_phase([&](Vp& vp) {
      local.set(vp.node_rank(), env.node_id() * 100);
    });
    env.barrier();
    if (env.node_id() >= 0) {
      // Read back after commit: each node sees only its own writes.
      vps.node_phase([&](Vp& vp) {
        if (vp.node_rank() == 0) {
          per_node_value.push_back(local.get(7));
        }
      });
    }
  });
  ASSERT_EQ(per_node_value.size(), static_cast<size_t>(GetParam().nodes));
  std::sort(per_node_value.begin(), per_node_value.end());
  for (int n = 0; n < GetParam().nodes; ++n) {
    EXPECT_EQ(per_node_value[static_cast<size_t>(n)], n * 100);
  }
}

TEST_P(PhaseSemantics, NodePhaseDefersWritesUntilCommit) {
  int64_t during = -1, after = -1;
  run(config(), [&](Env& env) {
    auto local = env.node_array<int64_t>(4);
    auto vps = env.ppm_do_async(4);
    vps.node_phase([&](Vp& vp) { local.set(vp.node_rank(), 11); });
    vps.node_phase([&](Vp& vp) {
      if (vp.node_rank() == 0 && env.node_id() == 0) during = local.get(1);
      local.set(vp.node_rank(), 22);
    });
    vps.node_phase([&](Vp& vp) {
      if (vp.node_rank() == 0 && env.node_id() == 0) after = local.get(1);
    });
  });
  EXPECT_EQ(during, 11);
  EXPECT_EQ(after, 22);
}

TEST_P(PhaseSemantics, MultiPhaseIterationConverges) {
  // Jacobi-style smoothing on a ring: x'_i = (x_{i-1} + x_{i+1}) / 2.
  // Phase semantics make the double-buffering implicit.
  const uint64_t per_node = 64 / static_cast<uint64_t>(GetParam().nodes);
  const uint64_t n = per_node * static_cast<uint64_t>(GetParam().nodes);
  double spread = -1, total_mass = -1;
  run(config(), [&](Env& env) {
    auto x = env.global_array<double>(n);
    auto vps = env.ppm_do(per_node);
    vps.global_phase([&](Vp& vp) {
      // Initial condition: a single spike.
      x.set(vp.global_rank(), vp.global_rank() == 0 ? 64.0 : 0.0);
    });
    for (int iter = 0; iter < 50; ++iter) {
      vps.global_phase([&](Vp& vp) {
        const uint64_t i = vp.global_rank();
        const double left = x.get((i + n - 1) % n);
        const double mid = x.get(i);
        const double right = x.get((i + 1) % n);
        // Weighted stencil: mixes both parities of the ring (the
        // unweighted average is bipartite and never converges).
        x.set(i, 0.25 * left + 0.5 * mid + 0.25 * right);
      });
    }
    double lo = 1e300, hi = -1e300, sum = 0;
    vps.global_phase([&](Vp& vp) {
      (void)vp;
      if (vp.node_rank() == 0 && env.node_id() == 0) {
        for (uint64_t i = 0; i < n; ++i) {
          const double v = x.get(i);
          lo = std::min(lo, v);
          hi = std::max(hi, v);
          sum += v;
        }
        spread = hi - lo;
        total_mass = sum;
      }
    });
  });
  // Diffusion smooths the spike (initial spread = 64; after 50 steps the
  // Gaussian peak is ~64/sqrt(2*pi*25) ~ 5.1) and conserves total mass.
  EXPECT_GE(spread, 0.0);
  EXPECT_LT(spread, 8.0);
  EXPECT_NEAR(total_mass, 64.0, 1e-9);
}

TEST_P(PhaseSemantics, VpRanksAreConsistent) {
  // node_rank in [0, K_local); global ranks partition [0, total).
  uint64_t total = 0;
  std::vector<uint64_t> all_globals;
  run(config(), [&](Env& env) {
    const uint64_t k = 5 + static_cast<uint64_t>(env.node_id());
    auto vps = env.ppm_do(k);  // different K per node (paper §3.3)
    total = vps.global_size();
    auto seen = env.global_array<int64_t>(vps.global_size());
    vps.global_phase([&](Vp& vp) {
      EXPECT_LT(vp.node_rank(), k);
      EXPECT_EQ(vp.global_rank(), vps.global_offset() + vp.node_rank());
      seen.add(vp.global_rank(), 1);
    });
    vps.global_phase([&](Vp& vp) {
      if (env.node_id() == 0 && vp.node_rank() == 0) {
        for (uint64_t i = 0; i < vps.global_size(); ++i) {
          all_globals.push_back(static_cast<uint64_t>(seen.get(i)));
        }
      }
    });
  });
  uint64_t expect_total = 0;
  for (int n = 0; n < GetParam().nodes; ++n) {
    expect_total += 5 + static_cast<uint64_t>(n);
  }
  EXPECT_EQ(total, expect_total);
  ASSERT_EQ(all_globals.size(), expect_total);
  for (uint64_t c : all_globals) EXPECT_EQ(c, 1u);  // each rank exactly once
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PhaseSemantics,
    ::testing::Values(Shape{1, 1}, Shape{1, 4}, Shape{2, 1}, Shape{2, 4},
                      Shape{4, 2}, Shape{3, 3}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n" + std::to_string(info.param.nodes) + "c" +
             std::to_string(info.param.cores);
    });

// A link whose 5 us send overhead makes 3 direct sends (15 us) lose to 2
// relay hops (13 us), as in core_env_collectives_test: from 4 nodes on it
// runs Bruck allgathers, and global commits take the sparse form.
PpmConfig with_bruck_link(PpmConfig c) {
  c.machine.network.send_overhead_ns = 5'000;
  c.machine.network.latency_ns = 1'000;
  return c;
}

TEST(PhaseSemanticsUnderJitter, ReadsOutsidePhasesSeeTheLatestCommit) {
  // A global commit ends once every marker owed to a node is in, with no
  // barrier after the apply, so a fast node can read a peer that is still
  // applying the same commit. The read carries the requester's epoch and
  // the owner serves it only after its own commit; served early, it would
  // return the previous round's value. Fabric jitter varies who is fast.
  // On the default link the commit's barrier is the all-peer marker
  // quorum; on the Bruck link it is the sparse form's census, which must
  // also keep a requester at most one epoch ahead.
  constexpr int kNodes = 4;
  constexpr int kSeeds = 40;
  constexpr int64_t kRounds = 20;
  const PpmConfig links[] = {cfg(kNodes, 1), with_bruck_link(cfg(kNodes, 1))};
  ASSERT_TRUE(plan_allgather(links[0].machine.network, kNodes).direct);
  ASSERT_FALSE(plan_allgather(links[1].machine.network, kNodes).direct);
  int reads = 0;
  int stale = 0;
  for (const PpmConfig& link : links) {
    for (int seed = 1; seed <= kSeeds; ++seed) {
      PpmConfig c = link;
      c.machine.faults.delay_jitter = true;
      c.machine.faults.seed = static_cast<uint64_t>(seed);
      c.machine.faults.delay_probability = 0.5;
      c.machine.faults.max_extra_delay_ns = 100'000;
      run(c, [&](Env& env) {
        auto a = env.global_array<int64_t>(kNodes);  // node n owns element n
        const int me = env.node_id();
        auto vps = env.ppm_do(1);
        for (int64_t round = 1; round <= kRounds; ++round) {
          vps.global_phase([&](Vp&) {
            a.set(static_cast<uint64_t>((me + 1) % kNodes), round * 100 + me);
          });
          // Element me+2 is node me+2's; node me+1 set it in this commit.
          const int64_t got =
              a.get(static_cast<uint64_t>((me + 2) % kNodes));
          ++reads;
          if (got != round * 100 + (me + 1) % kNodes) ++stale;
        }
      });
    }
  }
  EXPECT_EQ(reads, 2 * kSeeds * kNodes * static_cast<int>(kRounds));
  EXPECT_EQ(stale, 0);
}

// A send whose overhead reaches the engine's scheduling granularity
// (sim::kSmallAdvanceNs) can switch to another core's fiber. An eager
// flush must detach the payload and reseed the peer's buffers before it
// sends, or the entries another core appends during the send are lost
// when the buffer is reseeded after it. A 96-byte threshold flushes every
// few entries, so sends overlap other cores' writes all the time.
struct YieldingSend {
  int cores;
  int64_t send_overhead_ns;
};

class SendThatYields : public ::testing::TestWithParam<YieldingSend> {
 protected:
  static constexpr uint64_t kPerNode = 256;  // VPs per node = elements

  PpmConfig config() const {
    PpmConfig c = cfg(2, GetParam().cores);
    c.machine.network.send_overhead_ns = GetParam().send_overhead_ns;
    c.runtime.eager_flush = true;
    c.runtime.flush_threshold_bytes = 96;
    return c;
  }
  // The element on the other node that VP `rank` writes: node n's VP at
  // local rank j targets the element at local rank j of node 1 − n.
  static uint64_t remote_of(uint64_t rank) {
    return (rank + kPerNode) % (2 * kPerNode);
  }
  // The element after remote_of(rank) on the same node, wrapping.
  static uint64_t remote_next(uint64_t rank) {
    const uint64_t e = remote_of(rank);
    return e - e % kPerNode + (e + 1) % kPerNode;
  }
};

TEST_P(SendThatYields, EagerFlushKeepsEverySet) {
  std::vector<int64_t> got;
  run(config(), [&](Env& env) {
    auto a = env.global_array<int64_t>(2 * kPerNode);
    auto vps = env.ppm_do(kPerNode);
    vps.global_phase([&](Vp& vp) {
      const uint64_t r = vp.global_rank();
      a.set(remote_of(r), -1);  // superseded by the second set
      a.set(remote_of(r), static_cast<int64_t>(r) * 7 + 3);
    });
    if (env.node_id() == 0) {
      for (uint64_t i = 0; i < 2 * kPerNode; ++i) got.push_back(a.get(i));
    }
  });
  ASSERT_EQ(got.size(), 2 * kPerNode);
  int wrong = 0;
  for (uint64_t r = 0; r < 2 * kPerNode; ++r) {
    if (got[remote_of(r)] != static_cast<int64_t>(r) * 7 + 3) ++wrong;
  }
  EXPECT_EQ(wrong, 0);
}

TEST_P(SendThatYields, EagerFlushKeepsEveryAccumulate) {
  std::vector<int64_t> got;
  run(config(), [&](Env& env) {
    auto a = env.global_array<int64_t>(2 * kPerNode);
    auto vps = env.ppm_do(kPerNode);
    vps.global_phase([&](Vp& vp) {
      const uint64_t r = vp.global_rank();
      a.accumulate(remote_of(r), ReduceOp::kAdd, static_cast<int64_t>(r));
      a.accumulate(remote_next(r), ReduceOp::kAdd,
                   static_cast<int64_t>(r) * 1000);
    });
    if (env.node_id() == 0) {
      for (uint64_t i = 0; i < 2 * kPerNode; ++i) got.push_back(a.get(i));
    }
  });
  ASSERT_EQ(got.size(), 2 * kPerNode);
  std::vector<int64_t> want(2 * kPerNode, 0);
  for (uint64_t r = 0; r < 2 * kPerNode; ++r) {
    want[remote_of(r)] += static_cast<int64_t>(r);
    want[remote_next(r)] += static_cast<int64_t>(r) * 1000;
  }
  int wrong = 0;
  for (uint64_t i = 0; i < 2 * kPerNode; ++i) {
    if (got[i] != want[i]) ++wrong;
  }
  EXPECT_EQ(wrong, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Overheads, SendThatYields,
    ::testing::Values(YieldingSend{2, 999}, YieldingSend{2, 1'000},
                      YieldingSend{2, 5'000}, YieldingSend{4, 999},
                      YieldingSend{4, 1'000}, YieldingSend{4, 5'000}),
    [](const ::testing::TestParamInfo<YieldingSend>& info) {
      return "c" + std::to_string(info.param.cores) + "o" +
             std::to_string(info.param.send_overhead_ns);
    });

// Above the allgather crossover a commit sends last markers only to the
// peers written this epoch, and a census (a reduce-scatter of marker
// counts) tells each node how many markers to wait for. A peer whose whole
// stream left in eager flushes is still owed a marker: without it the
// owner could apply before those fragments arrive. At 4 nodes node n−1
// gets its census tokens from n−2 and n−3 only, so no token from writer n
// queues behind n's fragments on their FIFO channel; jitter stretches the
// fragments.
PpmConfig sparse_commit_config() { return with_bruck_link(cfg(4, 2)); }

TEST(SparseCommit, PeersWrittenOnlyByEagerFlushesGetTheirMarker) {
  constexpr uint64_t kSpan = 64;
  constexpr int kSeeds = 40;
  constexpr int64_t kRounds = 5;
  ASSERT_FALSE(
      plan_allgather(sparse_commit_config().machine.network, 4).direct);
  int checked = 0;
  int wrong = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    PpmConfig c = sparse_commit_config();
    c.runtime.flush_threshold_bytes = 96;  // every span ships at once
    c.machine.faults.delay_jitter = true;
    c.machine.faults.seed = static_cast<uint64_t>(seed);
    c.machine.faults.delay_probability = 0.5;
    c.machine.faults.max_extra_delay_ns = 100'000;
    run(c, [&](Env& env) {
      auto a = env.global_array<int64_t>(4 * kSpan);  // node n: span n
      const int me = env.node_id();
      const uint64_t dest_base = static_cast<uint64_t>((me + 3) % 4) * kSpan;
      auto vps = env.ppm_do(1);
      std::vector<int64_t> vals(kSpan);
      for (int64_t round = 1; round <= kRounds; ++round) {
        // Nodes 1 and 2 set node n−1's span, node 3 only accumulates
        // into node 2's, and node 0 writes nowhere.
        vps.global_phase([&](Vp&) {
          for (uint64_t i = 0; i < kSpan; ++i) {
            vals[i] = me == 3 ? round + static_cast<int64_t>(i)
                              : round * 1000 + me * 100 +
                                    static_cast<int64_t>(i);
          }
          if (me == 1 || me == 2) {
            a.set_n(dest_base, kSpan, vals.data());
          } else if (me == 3) {
            a.accumulate_n(dest_base, kSpan, ReduceOp::kAdd, vals.data());
          }
        });
        // Each node checks its own span, written this commit.
        const uint64_t base = static_cast<uint64_t>(me) * kSpan;
        for (uint64_t i = 0; i < kSpan; ++i) {
          const auto k = static_cast<int64_t>(i);
          int64_t want = 0;
          if (me == 0 || me == 1) {
            want = round * 1000 + (me + 1) * 100 + k;
          } else if (me == 2) {
            want = round * (round + 1) / 2 + round * k;
          }
          ++checked;
          if (a.get(base + i) != want) ++wrong;
        }
      }
    });
  }
  EXPECT_EQ(checked, kSeeds * 4 * static_cast<int>(kRounds * kSpan));
  EXPECT_EQ(wrong, 0);
}

TEST(SparseCommit, LocalWritesSendNoBundles) {
  const RunResult r = run(sparse_commit_config(), [](Env& env) {
    auto a = env.global_array<int64_t>(64);
    auto vps = env.ppm_do(16);
    for (int round = 0; round < 3; ++round) {
      vps.global_phase([&](Vp& vp) {
        a.set(static_cast<uint64_t>(env.node_id()) * 16 + vp.node_rank(),
              round);
      });
    }
  });
  EXPECT_EQ(r.global_phases, 3u);
  EXPECT_EQ(r.bundles_sent, 0u);
}

}  // namespace
}  // namespace ppm
