#include "cluster/machine.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace ppm::cluster {
namespace {

TEST(Machine, LaunchesOneFiberPerCore) {
  Machine machine({.nodes = 3, .cores_per_node = 4});
  std::set<std::pair<int, int>> seen;
  machine.run_per_core([&](const Place& p) { seen.insert({p.node, p.core}); });
  EXPECT_EQ(seen.size(), 12u);
  EXPECT_TRUE(seen.count({2, 3}));
  EXPECT_TRUE(seen.count({0, 0}));
}

TEST(Machine, LaunchesOneFiberPerNode) {
  Machine machine({.nodes = 5, .cores_per_node = 2});
  std::set<int> seen;
  machine.run_per_node([&](int node) { seen.insert(node); });
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Machine, RunDurationIsMaxOverFibers) {
  Machine machine({.nodes = 2, .cores_per_node = 2});
  machine.run_per_core([&](const Place& p) {
    sim::advance_ns(1000 * (p.node * 2 + p.core + 1));
  });
  EXPECT_EQ(machine.last_run_duration_ns(), 4000);
}

TEST(Machine, CoresShareTheNodeFabricEndpointSpace) {
  Machine machine({.nodes = 2, .cores_per_node = 2});
  int64_t got = 0;
  machine.run_per_core([&](const Place& p) {
    if (p.node == 0 && p.core == 1) {
      net::Message m;
      m.src_node = 0;
      m.src_port = 1;
      m.dst_node = 1;
      m.dst_port = 0;
      ByteWriter w;
      w.put<int64_t>(77);
      m.payload = std::move(w).take();
      machine.fabric().send(std::move(m));
    } else if (p.node == 1 && p.core == 0) {
      net::Message m = machine.fabric().endpoint(1, 0).recv();
      ByteReader r(m.payload);
      got = r.get<int64_t>();
    }
  });
  EXPECT_EQ(got, 77);
}

TEST(Machine, ServicePortIsReservedBeyondCores) {
  Machine machine({.nodes = 1, .cores_per_node = 3});
  EXPECT_EQ(machine.service_port(), 3);
  // The service endpoint exists.
  machine.fabric().endpoint(0, machine.service_port());
  // Beyond it: invalid.
  EXPECT_THROW(machine.fabric().endpoint(0, machine.service_port() + 1),
               Error);
}

TEST(Machine, RejectsDegenerateShapes) {
  EXPECT_THROW(Machine({.nodes = 0, .cores_per_node = 1}), Error);
  EXPECT_THROW(Machine({.nodes = 1, .cores_per_node = 0}), Error);
}

TEST(Machine, OneEnginePerNode) {
  Machine machine({.nodes = 3, .cores_per_node = 2});
  EXPECT_NE(&machine.engine_for_node(0), &machine.engine_for_node(1));
  EXPECT_NE(&machine.engine_for_node(1), &machine.engine_for_node(2));
  EXPECT_THROW(machine.engine_for_node(3), Error);
  // Every node's fibers run on that node's engine.
  std::vector<const sim::Engine*> ran_on(3);
  machine.run_per_node([&](int node) {
    ran_on[static_cast<size_t>(node)] = sim::current_engine();
  });
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(ran_on[static_cast<size_t>(n)], &machine.engine_for_node(n));
  }
}

TEST(Machine, ZeroAndOneSimThreadsBothRunOnTheCallingThread) {
  for (const int threads : {0, 1}) {
    Machine machine({.nodes = 4, .cores_per_node = 1, .sim_threads = threads});
    EXPECT_EQ(machine.sim_threads(), 1);
    std::vector<std::thread::id> ran_on(4);
    machine.run_per_node([&](int node) {
      ran_on[static_cast<size_t>(node)] = std::this_thread::get_id();
    });
    for (const std::thread::id id : ran_on) {
      EXPECT_EQ(id, std::this_thread::get_id());
    }
  }
  Machine capped({.nodes = 4, .cores_per_node = 1, .sim_threads = 64});
  EXPECT_EQ(capped.sim_threads(), 4);  // never more threads than nodes
}

TEST(Machine, SpawnAtAddsFiberDuringRun) {
  Machine machine({.nodes = 1, .cores_per_node = 2});
  bool helper_ran = false;
  machine.run_per_node([&](int node) {
    machine.spawn_at({node, 1}, "helper", [&] { helper_ran = true; });
  });
  EXPECT_TRUE(helper_ran);
}

TEST(Machine, SequentialRunsAccumulateIndependentDurations) {
  Machine machine({.nodes = 1, .cores_per_node = 1});
  machine.run_per_node([&](int) { sim::advance_ns(500); });
  EXPECT_EQ(machine.last_run_duration_ns(), 500);
  machine.run_per_node([&](int) { sim::advance_ns(200); });
  EXPECT_EQ(machine.last_run_duration_ns(), 200);
}

TEST(Machine, ProgramErrorPropagates) {
  Machine machine({.nodes = 2, .cores_per_node = 1});
  EXPECT_THROW(machine.run_per_node([&](int node) {
    if (node == 1) throw Error("app failure");
    // Node 0 must not hang the harness: it finishes normally.
  }),
               Error);
}

}  // namespace
}  // namespace ppm::cluster
