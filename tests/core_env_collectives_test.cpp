// Env-level node collectives (the paper's runtime utility functions) and
// system variables.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
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
  // The default link goes direct at these sizes. A per-message cost far
  // above the wire latency makes p-1 direct sends lose to ceil(log2 p)
  // relay hops from 4 nodes on, so that link runs Bruck dissemination.
  PpmConfig bruck = cfg(nodes);
  bruck.machine.network.send_overhead_ns = 5'000;
  bruck.machine.network.latency_ns = 1'000;
  EXPECT_EQ(plan_allgather(bruck.machine.network, nodes).direct,
            nodes == 2 || nodes == 3);
  for (const PpmConfig& c : {cfg(nodes), bruck}) {
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

TEST_P(EnvCollectives, ReduceScatterSumsEveryNodesCountForMe) {
  const int nodes = GetParam();
  // Node s counts (d + 1) << s for node d, so node d must receive
  // (d + 1) · (2^nodes − 1): a lost or doubled source flips a bit, and a
  // count routed to the wrong node changes the factor.
  std::vector<std::pair<int, uint32_t>> got;
  run(cfg(nodes), [&](Env& env) {
    std::vector<uint32_t> counts(static_cast<size_t>(nodes));
    for (int d = 0; d < nodes; ++d) {
      counts[static_cast<size_t>(d)] = static_cast<uint32_t>(d + 1)
                                       << env.node_id();
    }
    got.emplace_back(env.node_id(), env.runtime().reduce_scatter_sum(counts));
  });
  ASSERT_EQ(got.size(), static_cast<size_t>(nodes));
  for (const auto& [node, sum] : got) {
    EXPECT_EQ(sum, static_cast<uint32_t>(node + 1) * ((1u << nodes) - 1))
        << "node " << node;
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

INSTANTIATE_TEST_SUITE_P(NodeCounts, EnvCollectives,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

}  // namespace
}  // namespace ppm
