// Env-level node collectives (the paper's runtime utility functions) and
// system variables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/ppm.hpp"

namespace ppm {
namespace {

PpmConfig cfg(int nodes, int cores = 1) {
  PpmConfig c;
  c.machine.nodes = nodes;
  c.machine.cores_per_node = cores;
  return c;
}

/// The default link, which runs allgathers direct at these node counts,
/// and a link whose per-message cost far above the wire latency makes p-1
/// direct sends lose to ceil(log2 p) relay hops from 4 nodes on, so it
/// runs Bruck dissemination.
std::vector<PpmConfig> both_links(int nodes) {
  PpmConfig bruck = cfg(nodes);
  bruck.machine.network.send_overhead_ns = 5'000;
  bruck.machine.network.latency_ns = 1'000;
  return {cfg(nodes), bruck};
}

class EnvCollectives : public ::testing::TestWithParam<int> {};

TEST_P(EnvCollectives, SystemVariables) {
  const int nodes = GetParam();
  std::vector<int> ids;
  run(cfg(nodes, 3), [&](Env& env) {
    EXPECT_EQ(env.node_count(), nodes);
    EXPECT_EQ(env.cores_per_node(), 3);
    ids.push_back(env.node_id());
  });
  std::sort(ids.begin(), ids.end());
  for (int n = 0; n < nodes; ++n) EXPECT_EQ(ids[static_cast<size_t>(n)], n);
}

TEST_P(EnvCollectives, AllreduceSum) {
  const int nodes = GetParam();
  std::vector<double> results;
  run(cfg(nodes), [&](Env& env) {
    const double v = static_cast<double>(env.node_id() + 1);
    results.push_back(
        env.allreduce(v, [](double a, double b) { return a + b; }));
  });
  const double expect = nodes * (nodes + 1) / 2.0;
  for (double r : results) EXPECT_DOUBLE_EQ(r, expect);
}

TEST_P(EnvCollectives, AllgatherIndexedByNode) {
  const int nodes = GetParam();
  const std::vector<PpmConfig> links = both_links(nodes);
  EXPECT_EQ(plan_allgather(links[1].machine.network, nodes).direct,
            nodes == 2 || nodes == 3);
  for (const PpmConfig& c : links) {
    std::vector<std::vector<int>> views;
    run(c, [&](Env& env) {
      views.push_back(env.allgather(env.node_id() * 11));
    });
    for (const auto& view : views) {
      ASSERT_EQ(view.size(), static_cast<size_t>(nodes));
      for (int n = 0; n < nodes; ++n) {
        EXPECT_EQ(view[static_cast<size_t>(n)], n * 11);
      }
    }
  }
}

/// Node s's census blob: s bytes, none for node 0, each naming s.
Bytes census_blob(int s) {
  Bytes b;
  for (int j = 0; j < s; ++j) {
    b.push_back(static_cast<std::byte>(s * 16 + j));
  }
  return b;
}

TEST_P(EnvCollectives, ReduceScatterSumsEveryNodesCountForMe) {
  const int nodes = GetParam();
  // Node s counts (d + 1) << s for node d, so node d must receive
  // (d + 1) · (2^nodes − 1): a lost or doubled source flips a bit, and a
  // count routed to the wrong node changes the factor. With blobs, the
  // same census must also hand every node every node's blob.
  int rounds = 0;
  for (int span = 1; span < nodes; span *= 2) ++rounds;
  for (const PpmConfig& c : both_links(nodes)) {
    const auto census = [&](bool with_blobs) {
      std::vector<std::pair<int, uint32_t>> got;
      const RunResult r = run(c, [&](Env& env) {
        std::vector<uint32_t> counts(static_cast<size_t>(nodes));
        for (int d = 0; d < nodes; ++d) {
          counts[static_cast<size_t>(d)] = static_cast<uint32_t>(d + 1)
                                           << env.node_id();
        }
        if (!with_blobs) {
          got.emplace_back(env.node_id(),
                           env.runtime().reduce_scatter_sum(counts));
          return;
        }
        std::vector<Bytes> blobs(static_cast<size_t>(nodes));
        blobs[static_cast<size_t>(env.node_id())] =
            census_blob(env.node_id());
        got.emplace_back(env.node_id(),
                         env.runtime().reduce_scatter_sum(counts, &blobs));
        for (int s = 0; s < nodes; ++s) {
          EXPECT_EQ(blobs[static_cast<size_t>(s)], census_blob(s))
              << "node " << env.node_id() << " holds node " << s
              << "'s blob wrong";
        }
      });
      EXPECT_EQ(got.size(), static_cast<size_t>(nodes));
      for (const auto& [node, sum] : got) {
        EXPECT_EQ(sum, static_cast<uint32_t>(node + 1) * ((1u << nodes) - 1))
            << "node " << node;
      }
      return r;
    };
    const RunResult none = run(c, [](Env&) {});
    const RunResult plain = census(false);
    const RunResult carrying = census(true);
    // Without a blob the census sends what it always did: per node and
    // round one token, its 12-byte head plus the live counts, p − 1 of
    // them per node over all rounds.
    const auto p = static_cast<uint64_t>(nodes);
    const auto r = static_cast<uint64_t>(rounds);
    EXPECT_EQ(plain.network_messages - none.network_messages, p * r);
    EXPECT_EQ(plain.network_bytes - none.network_bytes,
              p * (12 * r + 4 * (p - 1)));
    // The blobs ride the same tokens.
    EXPECT_EQ(carrying.network_messages, plain.network_messages);
  }
}

TEST(AllgatherPlan, BenchMachineGoesDirectUpTo84Nodes) {
  // bench/bench_common.hpp's network: 0.6 us overheads, 6 us latency.
  // 84 nodes: 83 sends (49.8 us) undercut 7 hops (50.4 us); 85 do not.
  const net::LinkParams link{.latency_ns = 6'000,
                             .bytes_per_ns = 2.0,
                             .send_overhead_ns = 600,
                             .recv_overhead_ns = 600};
  EXPECT_EQ(plan_allgather(link, 1).cost_ns, 0);
  EXPECT_TRUE(plan_allgather(link, 8).direct);
  EXPECT_EQ(plan_allgather(link, 8).cost_ns, 7 * 600 + 6'600);
  EXPECT_TRUE(plan_allgather(link, 84).direct);
  EXPECT_FALSE(plan_allgather(link, 85).direct);
  EXPECT_FALSE(plan_allgather(link, 256).direct);
  EXPECT_EQ(plan_allgather(link, 256).cost_ns, 8 * 7'200);
}

TEST_P(EnvCollectives, BroadcastFromEachRoot) {
  const int nodes = GetParam();
  for (int root = 0; root < nodes; ++root) {
    std::vector<std::vector<int64_t>> got;
    run(cfg(nodes), [&](Env& env) {
      std::vector<int64_t> data;
      if (env.node_id() == root) data = {root * 5LL, -root, 7};
      env.broadcast(data, root);
      got.push_back(data);
    });
    for (const auto& d : got) {
      EXPECT_EQ(d, (std::vector<int64_t>{root * 5LL, -root, 7}));
    }
  }
}

TEST_P(EnvCollectives, InclusiveScanOverNodes) {
  const int nodes = GetParam();
  std::vector<std::pair<int, long>> got;
  run(cfg(nodes), [&](Env& env) {
    const long v = env.node_id() + 1;
    got.emplace_back(env.node_id(),
                     env.scan_inclusive(v, [](long a, long b) { return a + b; }));
  });
  for (const auto& [node, value] : got) {
    EXPECT_EQ(value, static_cast<long>(node + 1) * (node + 2) / 2);
  }
}

TEST_P(EnvCollectives, BarrierSynchronizesVirtualTime) {
  const int nodes = GetParam();
  std::vector<int64_t> after(static_cast<size_t>(nodes), -1);
  PpmConfig c = cfg(nodes);
  cluster::Machine machine(c.machine);
  run_on(machine, c.runtime, [&](Env& env) {
    sim::advance_ns(1000 * (env.node_id() + 1));
    env.barrier();
    after[static_cast<size_t>(env.node_id())] = sim::now_ns();
  });
  for (int64_t t : after) EXPECT_GE(t, 1000 * nodes);
}

TEST_P(EnvCollectives, CollectivesComposeWithPhases) {
  const int nodes = GetParam();
  std::vector<double> norms;
  run(cfg(nodes, 2), [&](Env& env) {
    auto x = env.global_array<double>(32);
    const uint64_t per = 32 / static_cast<uint64_t>(env.node_count());
    auto vps = env.ppm_do(per);
    vps.global_phase([&](Vp& vp) { x.set(vp.global_rank(), 2.0); });
    // Node-local partial sum over the owned chunk, then allreduce.
    double partial = 0;
    for (double v : x.local_span()) partial += v * v;
    norms.push_back(
        env.allreduce(partial, [](double a, double b) { return a + b; }));
  });
  const uint64_t covered = (32 / static_cast<uint64_t>(nodes)) *
                           static_cast<uint64_t>(nodes);
  for (double n2 : norms) EXPECT_DOUBLE_EQ(n2, 4.0 * covered);
}

// ---------------------------------------------------------------------------
// Env::allgather_array
// ---------------------------------------------------------------------------

/// The logical contents the allgather_array tests write: distinct per
/// element, and never the zero an element nobody placed would keep.
int64_t content(uint64_t i) { return static_cast<int64_t>(i * 7 + 3); }

std::vector<int64_t> contents(uint64_t n) {
  std::vector<int64_t> want(n);
  for (uint64_t i = 0; i < n; ++i) want[i] = content(i);
  return want;
}

TEST_P(EnvCollectives, AllgatherArrayEveryLayoutAndSize) {
  const int nodes = GetParam();
  // 37 is a multiple of no node count here; 1 and 3 leave nodes that own
  // nothing. Two-element migration blocks give kAdaptive many runs, and a
  // clipped last block at odd n.
  for (PpmConfig c : both_links(nodes)) {
    c.runtime.read_block_bytes = 2 * sizeof(int64_t);
    for (const uint64_t n : {uint64_t{1}, uint64_t{3}, uint64_t{37}}) {
      for (const auto dist : {Distribution::kBlock, Distribution::kCyclic,
                              Distribution::kAdaptive}) {
        std::vector<std::vector<int64_t>> got;
        run(c, [&](Env& env) {
          auto a = env.global_array<int64_t>(n, dist);
          // VP r sets the elements i with floor(i / 3) mod nodes == r:
          // runs of three, mostly remote under every layout.
          auto vps = env.ppm_do(1);
          vps.global_phase([&](Vp& vp) {
            for (uint64_t i = 0; i < n; ++i) {
              if ((i / 3) % static_cast<uint64_t>(nodes) == vp.global_rank()) {
                a.set(i, content(i));
              }
            }
          });
          got.push_back(env.allgather_array(a));
        });
        ASSERT_EQ(got.size(), static_cast<size_t>(nodes));
        for (const auto& view : got) {
          EXPECT_EQ(view, contents(n))
              << "n " << n << " dist " << static_cast<int>(dist)
              << " send overhead " << c.machine.network.send_overhead_ns;
        }
      }
    }
  }
}

TEST(AllgatherArray, AdaptiveLayoutAfterMigration) {
  // Each node reads the first block of its right neighbour's initial
  // chunk, which that neighbour never reads, so the rebalance moves it to
  // the reader (at 5 nodes the last node starts with no block and ends
  // with one). A write round after the moves lands on the migrated blocks
  // before the collective runs.
  for (const int nodes : {3, 5}) {
    for (PpmConfig c : both_links(nodes)) {
      c.runtime.read_block_bytes = 4 * sizeof(int64_t);
      const uint64_t n = 61;  // 16 blocks, the last one clipped to 1
      std::vector<std::vector<int64_t>> got;
      const RunResult r = run(c, [&](Env& env) {
        auto a = env.global_array<int64_t>(n, Distribution::kAdaptive);
        const auto p = static_cast<uint64_t>(nodes);
        const uint64_t per_node = (16 + p - 1) / p * 4;  // initial chunk
        const uint64_t right =
            (static_cast<uint64_t>(env.node_id()) + 1) % p * per_node;
        auto vps = env.ppm_do(1);
        vps.global_phase([&](Vp& vp) {
          for (uint64_t i = vp.global_rank(); i < n; i += p) a.set(i, 1);
        });
        env.rebalance(a);
        vps.global_phase([&](Vp&) {
          for (uint64_t i = right; i < std::min(n, right + 4); ++i) {
            EXPECT_EQ(a.get(i), 1);
          }
        });
        vps.global_phase([&](Vp& vp) {
          for (uint64_t i = vp.global_rank(); i < n; i += p) {
            a.add(i, content(i) - 1);
          }
        });
        got.push_back(env.allgather_array(a));
      });
      EXPECT_GT(r.blocks_migrated, 0u) << nodes << " nodes";
      ASSERT_EQ(got.size(), static_cast<size_t>(nodes));
      for (const auto& view : got) {
        EXPECT_EQ(view, contents(n))
            << nodes << " nodes, send overhead "
            << c.machine.network.send_overhead_ns;
      }
    }
  }
}

TEST(AllgatherArray, InsidePhaseRejected) {
  try {
    run(cfg(2), [](Env& env) {
      auto a = env.global_array<int64_t>(8);
      env.ppm_do(1).global_phase([&](Vp&) { (void)env.allgather_array(a); });
    });
    ADD_FAILURE() << "allgather_array inside a phase accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("allgather_array inside a phase"),
              std::string::npos)
        << e.what();
  }
}

TEST(AllgatherArray, BlobThatDisagreesWithOwnerMapRejected) {
  // Owner maps are replicated in lockstep, so a node's blob can only
  // disagree with another node's map through a runtime fault: placement
  // must refuse it, not read past the blob or leave elements unset.
  for (const auto dist : {Distribution::kBlock, Distribution::kCyclic,
                          Distribution::kAdaptive}) {
    try {
      run(cfg(2), [&](Env& env) {
        auto a = env.global_array<int64_t>(8, dist);
        std::vector<Bytes> owned =
            env.runtime().allgather_owned_elems(a.id());
        owned[0].resize(owned[0].size() - sizeof(int64_t));
        std::vector<int64_t> out(8);
        env.runtime().place_owned_elems(
            a.id(), owned, reinterpret_cast<std::byte*>(out.data()));
      });
      ADD_FAILURE() << "short blob accepted, dist " << static_cast<int>(dist);
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("node 0 sent"),
                std::string::npos)
          << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, EnvCollectives,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

}  // namespace
}  // namespace ppm
