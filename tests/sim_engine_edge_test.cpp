// Engine and fabric edge cases beyond the basic suites.
#include <gtest/gtest.h>

#include "cluster/machine.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/error.hpp"

namespace ppm::sim {
namespace {

TEST(EngineEdge, EventScheduledInThePastFiresAtCurrentTime) {
  Engine engine;
  int64_t fired_at = -1;
  engine.spawn("f", [&] {
    engine.advance_ns(5'000);
    engine.at(1'000, [&] { fired_at = engine.engine_now_ns(); });
    engine.sleep_for_ns(10'000);
  });
  engine.run();
  // The event's nominal time is in the past relative to engine progress;
  // it fires without rewinding the engine clock.
  EXPECT_GE(fired_at, 0);
}

TEST(EngineEdge, AdvanceLetsEarlierEventsRunFirst) {
  Engine engine;
  std::vector<int> order;
  engine.at(2'000, [&] { order.push_back(1); });
  engine.spawn("worker", [&] {
    engine.advance_ns(10'000);  // >= kSmallAdvanceNs: scheduling point
    order.push_back(2);
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EngineEdge, SmallAdvanceSkipsSchedulingPoint) {
  Engine engine;
  std::vector<int> order;
  engine.at(10, [&] { order.push_back(1); });
  engine.spawn("worker", [&] {
    // Below kSmallAdvanceNs: accumulates without yielding, so the fiber
    // (spawned first at t=0... event at t=10 is later than spawn) runs on.
    for (int i = 0; i < 100; ++i) engine.advance_ns(5);
    order.push_back(2);
  });
  engine.run();
  // The worker spawned at t=0 runs its whole slice before the t=10 event.
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EngineEdge, ZeroAdvanceIsAllowed) {
  Engine engine;
  engine.spawn("f", [&] {
    engine.advance_ns(0);
    EXPECT_EQ(engine.now_ns(), 0);
  });
  engine.run();
}

TEST(EngineEdge, NegativeAdvanceRejected) {
  Engine engine;
  engine.spawn("f", [&] { EXPECT_THROW(engine.advance_ns(-1), Error); });
  engine.run();
}

TEST(EngineEdge, RunIsNotReentrant) {
  Engine engine;
  engine.spawn("f", [&] { EXPECT_THROW(engine.run(), Error); });
  engine.run();
}

TEST(EngineEdge, EventsFiredCounterAdvances) {
  Engine engine;
  engine.at(1, [] {});
  engine.at(2, [] {});
  engine.run();
  EXPECT_GE(engine.events_fired(), 2u);
}

}  // namespace
}  // namespace ppm::sim

namespace ppm::net {
namespace {

TEST(FabricEdge, ZeroByteMessagesDeliver) {
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Fabric& fabric = machine.fabric();
  bool got = false;
  machine.run_per_node([&](int node) {
    if (node == 1) {
      const Message m = fabric.endpoint(1, 0).recv();
      got = m.payload.empty();
    } else {
      Message m;
      m.src_node = 0;
      m.dst_node = 1;
      fabric.send(std::move(m));
    }
  });
  EXPECT_TRUE(got);
}

TEST(FabricEdge, OrderingPreservedUnderHeavyContention) {
  // Many senders to one destination: per-sender FIFO must hold even while
  // the shared NICs serialize everything.
  cluster::Machine machine({.nodes = 5, .cores_per_node = 1});
  Fabric& fabric = machine.fabric();
  std::vector<std::vector<uint64_t>> seen(4);
  machine.run_per_node([&](int node) {
    if (node == 4) {
      for (int i = 0; i < 4 * 20; ++i) {
        const Message m = fabric.endpoint(4, 0).recv();
        seen[static_cast<size_t>(m.src_node)].push_back(m.kind);
      }
      return;
    }
    for (uint64_t k = 0; k < 20; ++k) {
      Message m;
      m.src_node = node;
      m.dst_node = 4;
      m.kind = k;
      m.payload.assign(64, std::byte{0});
      fabric.send(std::move(m));
    }
  });
  for (const auto& kinds : seen) {
    ASSERT_EQ(kinds.size(), 20u);
    EXPECT_TRUE(std::is_sorted(kinds.begin(), kinds.end()));
  }
}

TEST(FabricEdge, SelfSendOnSameNodeWorks) {
  cluster::Machine machine({.nodes = 1, .cores_per_node = 1});
  Fabric& fabric = machine.fabric();
  bool got = false;
  machine.run_per_node([&](int) {
    Message m;
    m.src_node = 0;
    m.src_port = 0;
    m.dst_node = 0;
    m.dst_port = 0;  // to its own port
    fabric.send(std::move(m));
    (void)fabric.endpoint(0, 0).recv();
    got = true;
  });
  EXPECT_TRUE(got);
}

}  // namespace
}  // namespace ppm::net
