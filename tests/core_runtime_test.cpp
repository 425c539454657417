// Runtime mechanics: read bundling and caching, gather, eager write
// streaming, scheduling policies, locality utilities, misuse checks.
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

TEST(RuntimeReads, BlockCacheServesRepeatedReads) {
  PpmConfig c = cfg(2, 1);
  c.runtime.bundle_reads = true;
  c.runtime.read_block_bytes = 1024;  // 128 doubles per block
  RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<double>(256);  // nodes own 128 each
    auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    vps.global_phase([&](Vp& vp) {
      (void)vp;
      // 128 reads of remote elements covered by ONE cache block.
      double sum = 0;
      for (uint64_t i = 128; i < 256; ++i) sum += a.get(i);
      (void)sum;
    });
  });
  EXPECT_EQ(r.remote_blocks_fetched, 1u);
  EXPECT_EQ(r.remote_reads_served_from_cache, 127u);
}

TEST(RuntimeReads, BundlingOffFetchesEveryElement) {
  PpmConfig c = cfg(2, 1);
  c.runtime.bundle_reads = false;
  RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<double>(256);
    auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    vps.global_phase([&](Vp& vp) {
      (void)vp;
      double sum = 0;
      for (uint64_t i = 128; i < 160; ++i) sum += a.get(i);
      (void)sum;
    });
  });
  EXPECT_EQ(r.remote_blocks_fetched, 32u);
  EXPECT_EQ(r.remote_reads_served_from_cache, 0u);
}

TEST(RuntimeReads, CacheIsInvalidatedAtPhaseCommit) {
  PpmConfig c = cfg(2, 1);
  std::vector<double> seen;
  run(c, [&](Env& env) {
    auto a = env.global_array<double>(2);  // node 0 owns 0, node 1 owns 1
    for (int round = 1; round <= 3; ++round) {
      auto vps = env.ppm_do(1);
      vps.global_phase([&](Vp& vp) {
        (void)vp;
        if (env.node_id() == 0) {
          seen.push_back(a.get(1));      // remote read (cached)
          seen.push_back(a.get(1));      // cache hit, same value
        } else {
          a.set(1, round * 10.0);        // owner updates for next phase
        }
      });
    }
  });
  // Phase k must observe the value committed by phase k-1, never a stale
  // cache line.
  EXPECT_EQ(seen, (std::vector<double>{0, 0, 10, 10, 20, 20}));
}

TEST(RuntimeReads, RequestCombiningAcrossCores) {
  PpmConfig c = cfg(2, 4);
  c.runtime.read_block_bytes = 4096;
  RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<double>(512);
    // 4 cores on node 0 all read the same remote block concurrently.
    auto vps = env.ppm_do(env.node_id() == 0 ? 4 : 0);
    vps.global_phase([&](Vp& vp) {
      double sum = 0;
      for (uint64_t i = 256; i < 384; ++i) sum += a.get(i);
      (void)sum;
      (void)vp;
    });
  });
  // One fetch for the shared block; every other access combined/cached.
  EXPECT_EQ(r.remote_blocks_fetched, 1u);
}

TEST(RuntimeReads, GatherBundlesPerOwner) {
  PpmConfig c = cfg(4, 1);
  std::vector<double> got;
  RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<double>(64);  // 16 per node
    // Populate: element i = i * 1.5.
    auto vps = env.ppm_do(16);
    vps.global_phase([&](Vp& vp) {
      a.set(vp.global_rank(), static_cast<double>(vp.global_rank()) * 1.5);
    });
    vps.global_phase([&](Vp& vp) {
      if (env.node_id() == 0 && vp.node_rank() == 0) {
        // Indices scattered over 3 remote owners + self, in random order.
        const std::vector<uint64_t> idx = {60, 1, 17, 33, 34, 61, 2, 18};
        got = a.gather(idx);
      }
    });
  });
  EXPECT_EQ(got, (std::vector<double>{90, 1.5, 25.5, 49.5, 51, 91.5, 3, 27}));
  (void)r;
}

TEST(RuntimeWrites, EagerFlushStreamsFragmentsMidPhase) {
  PpmConfig base = cfg(2, 1);
  base.runtime.flush_threshold_bytes = 512;

  auto count_bundles = [&](bool eager) {
    PpmConfig c = base;
    c.runtime.eager_flush = eager;
    return run(c, [&](Env& env) {
      auto a = env.global_array<double>(4096);
      // Node 0's VPs write remote elements; enough volume to cross the
      // flush threshold many times.
      auto vps = env.ppm_do(env.node_id() == 0 ? 2048 : 0);
      vps.global_phase([&](Vp& vp) {
        a.set(2048 + vp.node_rank(), 1.0);
      });
    });
  };

  const RunResult eager_on = count_bundles(true);
  const RunResult eager_off = count_bundles(false);
  // Eager: many fragments; lazy: exactly one bundle per (src,dst) pair per
  // phase. Final values identical either way (checked by semantics tests).
  EXPECT_GT(eager_on.bundles_sent, 10u);
  // Two global phases happen per run? No: one phase, two nodes, each node
  // sends 1 final bundle to the other.
  EXPECT_EQ(eager_off.bundles_sent, 2u);
}

TEST(RuntimeWrites, WriteEntriesCounted) {
  RunResult r = run(cfg(2, 2), [&](Env& env) {
    auto a = env.global_array<int>(100);
    auto vps = env.ppm_do(10);
    vps.global_phase([&](Vp& vp) {
      a.set(vp.global_rank(), 1);
      a.add(vp.global_rank(), 2);
    });
  });
  EXPECT_EQ(r.write_entries, 2u * 10u * 2u);
}

TEST(RuntimeSchedule, StaticAndDynamicProduceSameResult) {
  for (SchedulePolicy policy :
       {SchedulePolicy::kStatic, SchedulePolicy::kDynamic}) {
    PpmConfig c = cfg(2, 4);
    c.runtime.schedule = policy;
    int64_t checksum = 0;
    run(c, [&](Env& env) {
      auto a = env.global_array<int64_t>(1000);
      auto vps = env.ppm_do(500);
      vps.global_phase([&](Vp& vp) {
        a.set(vp.global_rank(), static_cast<int64_t>(vp.global_rank() * 7));
      });
      vps.global_phase([&](Vp& vp) {
        if (env.node_id() == 0 && vp.node_rank() == 0) {
          for (uint64_t i = 0; i < 1000; ++i) checksum += a.get(i);
        }
      });
    });
    // 2 nodes x 500 VPs cover ranks [0, 1000).
    int64_t expect = 0;
    for (int64_t i = 0; i < 1000; ++i) expect += i * 7;
    EXPECT_EQ(checksum, expect) << "policy " << static_cast<int>(policy);
  }
}

TEST(RuntimeSchedule, ChunkSizeOverrideRespected) {
  PpmConfig c = cfg(1, 4);
  c.runtime.chunk_size = 3;
  int64_t sum = 0;
  run(c, [&](Env& env) {
    auto a = env.node_array<int64_t>(1);
    auto vps = env.ppm_do_async(100);
    vps.node_phase([&](Vp& vp) {
      (void)vp;
      a.add(0, 1);
    });
    vps.node_phase([&](Vp& vp) {
      if (vp.node_rank() == 0) sum = a.get(0);
    });
  });
  EXPECT_EQ(sum, 100);
}

TEST(RuntimeLocality, CastingUtilitiesDescribeDistribution) {
  run(cfg(4, 1), [&](Env& env) {
    auto a = env.global_array<float>(100);  // chunk = 25
    EXPECT_EQ(a.local_begin(), static_cast<uint64_t>(env.node_id()) * 25);
    EXPECT_EQ(a.local_end(), a.local_begin() + 25);
    EXPECT_EQ(a.local_span().size(), 25u);
    EXPECT_EQ(a.owner(0), 0);
    EXPECT_EQ(a.owner(24), 0);
    EXPECT_EQ(a.owner(25), 1);
    EXPECT_EQ(a.owner(99), 3);
  });
}

TEST(RuntimeLocality, UnevenTailDistribution) {
  run(cfg(4, 1), [&](Env& env) {
    auto a = env.global_array<double>(10);  // chunk = 3: 3,3,3,1
    const uint64_t expect_len =
        env.node_id() < 3 ? 3 : 1;
    EXPECT_EQ(a.local_end() - a.local_begin(), expect_len);
    EXPECT_EQ(a.owner(9), 3);
  });
}

TEST(RuntimeLocality, LocalWritesOutsidePhasesAreImmediate) {
  std::vector<double> seen;
  run(cfg(2, 1), [&](Env& env) {
    auto a = env.global_array<double>(8);
    // Initialize own chunk directly from the node program.
    for (uint64_t i = a.local_begin(); i < a.local_end(); ++i) {
      a.set(i, static_cast<double>(i) + 0.5);
    }
    EXPECT_DOUBLE_EQ(a.get(a.local_begin()), a.local_begin() + 0.5);
    env.barrier();
    auto vps = env.ppm_do(1);
    vps.global_phase([&](Vp& vp) {
      (void)vp;
      if (env.node_id() == 0) {
        for (uint64_t i = 0; i < 8; ++i) seen.push_back(a.get(i));
      }
    });
  });
  EXPECT_EQ(seen,
            (std::vector<double>{0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5}));
}

TEST(RuntimeMisuse, GlobalWriteInNodePhaseRejected) {
  EXPECT_THROW(run(cfg(2, 1),
                   [&](Env& env) {
                     auto a = env.global_array<int>(4);
                     auto vps = env.ppm_do(1);
                     vps.node_phase([&](Vp& vp) {
                       (void)vp;
                       a.set(0, 1);
                     });
                   }),
               Error);
}

TEST(RuntimeMisuse, RemoteWriteOutsidePhaseRejected) {
  EXPECT_THROW(run(cfg(2, 1),
                   [&](Env& env) {
                     auto a = env.global_array<int>(4);
                     if (env.node_id() == 0) a.set(3, 1);  // owned by node 1
                     env.barrier();
                   }),
               Error);
}

TEST(RuntimeMisuse, OutOfRangeAccessRejected) {
  EXPECT_THROW(run(cfg(1, 1),
                   [&](Env& env) {
                     auto a = env.global_array<int>(4);
                     (void)a.get(4);
                   }),
               Error);
}

TEST(RuntimeMisuse, WriteToUnknownArrayRejected) {
  // Regression: write_elem used to index arrays_ before validating the
  // id, so an unknown array id was undefined behavior instead of Error.
  EXPECT_THROW(run(cfg(1, 1),
                   [&](Env& env) {
                     auto vps = env.ppm_do(1);
                     vps.global_phase([&](Vp& vp) {
                       (void)vp;
                       const int v = 1;
                       env.runtime().write_elem(
                           99, 0, reinterpret_cast<const std::byte*>(&v),
                           detail::WriteOp::kSet);
                     });
                   }),
               Error);
}

TEST(RuntimeMisuse, NestedPhasesRejected) {
  EXPECT_THROW(run(cfg(1, 1),
                   [&](Env& env) {
                     auto vps = env.ppm_do(1);
                     vps.global_phase([&](Vp& vp) {
                       (void)vp;
                       auto inner = env.ppm_do_async(1);
                       inner.node_phase([](Vp&) {});
                     });
                   }),
               Error);
}

TEST(RuntimeMisuse, GlobalPhaseOnAsyncGroupRejected) {
  EXPECT_THROW(run(cfg(2, 1),
                   [&](Env& env) {
                     auto vps = env.ppm_do_async(4);
                     vps.global_phase([](Vp&) {});
                   }),
               Error);
}

TEST(RuntimeMisuse, ArrayCreationInsidePhaseRejected) {
  EXPECT_THROW(run(cfg(1, 1),
                   [&](Env& env) {
                     auto vps = env.ppm_do(1);
                     vps.global_phase([&](Vp& vp) {
                       (void)vp;
                       (void)env.global_array<int>(4);
                     });
                   }),
               Error);
}

TEST(RuntimeMisuse, ZeroSizedArrayRejected) {
  EXPECT_THROW(run(cfg(1, 1),
                   [&](Env& env) { (void)env.global_array<int>(0); }),
               Error);
}

TEST(RuntimeAsync, DifferentNodesDifferentWork) {
  // The paper's asynchronous mode: nodes run different K, node phases only.
  std::vector<int64_t> per_node(4, -1);
  run(cfg(4, 2), [&](Env& env) {
    const uint64_t k = 10 * (static_cast<uint64_t>(env.node_id()) + 1);
    auto sum = env.node_array<int64_t>(1);
    auto vps = env.ppm_do_async(k);
    vps.node_phase([&](Vp& vp) {
      (void)vp;
      sum.add(0, 1);
    });
    per_node[static_cast<size_t>(env.node_id())] = sum.span()[0];
  });
  EXPECT_EQ(per_node, (std::vector<int64_t>{10, 20, 30, 40}));
}

TEST(RuntimeStats, PhaseCountersAccumulate) {
  RunResult r = run(cfg(3, 1), [&](Env& env) {
    auto vps = env.ppm_do(2);
    vps.global_phase([](Vp&) {});
    vps.global_phase([](Vp&) {});
    vps.node_phase([](Vp&) {});
  });
  EXPECT_EQ(r.global_phases, 2u);       // per cluster
  EXPECT_EQ(r.node_phases, 3u);         // summed over nodes
}

}  // namespace
}  // namespace ppm
