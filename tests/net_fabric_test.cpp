#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "util/error.hpp"

namespace ppm::net {
namespace {

using cluster::Place;

Message make_msg(int src_node, int src_port, int dst_node, int dst_port,
                 size_t bytes, uint64_t kind = 0) {
  Message m;
  m.src_node = src_node;
  m.src_port = src_port;
  m.dst_node = dst_node;
  m.dst_port = dst_port;
  m.kind = kind;
  m.payload.assign(bytes, std::byte{0xab});
  return m;
}

cluster::MachineConfig two_nodes() {
  cluster::MachineConfig cfg;
  cfg.nodes = 2;
  cfg.cores_per_node = 2;
  return cfg;
}

/// 1 B/ns, no software overheads: times below are pure NIC arithmetic.
constexpr LinkParams kBareLink = {.latency_ns = 500,
                                  .bytes_per_ns = 1.0,
                                  .send_overhead_ns = 0,
                                  .recv_overhead_ns = 0};

TEST(Fabric, DeliversInterNodeMessage) {
  cluster::Machine machine(two_nodes());
  Fabric& fabric = machine.fabric();
  std::string got;
  machine.run_per_core([&](const Place& p) {
    if (p.node == 1 && p.core == 0) {
      Message m = fabric.endpoint(1, 0).recv();
      got.assign(reinterpret_cast<const char*>(m.payload.data()),
                 m.payload.size());
    } else if (p.node == 0 && p.core == 0) {
      Message m;
      m.src_node = 0;
      m.dst_node = 1;
      m.payload.resize(2);
      std::memcpy(m.payload.data(), "hi", 2);
      fabric.send(std::move(m));
    }
  });
  EXPECT_EQ(got, "hi");
}

TEST(Fabric, InterNodeTimingMatchesModel) {
  cluster::MachineConfig cfg = two_nodes();
  cfg.network = {.latency_ns = 1000,
                 .bytes_per_ns = 1.0,
                 .send_overhead_ns = 100,
                 .recv_overhead_ns = 50};
  cluster::Machine machine(cfg);
  Fabric& fabric = machine.fabric();
  int64_t recv_at = -1;
  machine.run_per_core([&](const Place& p) {
    if (p.node == 1 && p.core == 0) {
      (void)fabric.endpoint(1, 0).recv();
      recv_at = sim::now_ns();
    } else if (p.node == 0 && p.core == 0) {
      fabric.send(make_msg(0, 0, 1, 0, /*bytes=*/200));
    }
  });
  // send_overhead 100 + latency 1000 + 200B @ 1B/ns + recv_overhead 50.
  EXPECT_EQ(recv_at, 100 + 1000 + 200 + 50);
  EXPECT_EQ(fabric.uncontended_network_time_ns(200), recv_at);
}

TEST(Fabric, IntraNodeIsCheaperThanNetwork) {
  cluster::Machine machine(two_nodes());
  Fabric& fabric = machine.fabric();
  int64_t intra_at = -1, inter_at = -1;
  machine.run_per_core([&](const Place& p) {
    if (p.node == 0 && p.core == 1) {
      (void)fabric.endpoint(0, 1).recv();
      intra_at = sim::now_ns();
    } else if (p.node == 1 && p.core == 1) {
      (void)fabric.endpoint(1, 1).recv();
      inter_at = sim::now_ns();
    } else if (p.node == 0 && p.core == 0) {
      fabric.send(make_msg(0, 0, 0, 1, 512));
      fabric.send(make_msg(0, 0, 1, 1, 512));
    }
  });
  EXPECT_GT(intra_at, 0);
  EXPECT_LT(intra_at, inter_at);
}

TEST(Fabric, EgressSerializesConcurrentSenders) {
  cluster::MachineConfig cfg = two_nodes();
  cfg.network = kBareLink;
  cluster::Machine machine(cfg);
  Fabric& fabric = machine.fabric();
  std::vector<int64_t> arrivals;
  // Two cores of node 0 send 1000B each at t=0: the shared egress NIC
  // transmits them over [0, 1000) and [1000, 2000), so they reach node 1
  // at 500 and 1500 and its ingress absorbs each in 1000 more.
  machine.run_per_core([&](const Place& p) {
    if (p.node == 1 && p.core == 0) {
      for (int i = 0; i < 2; ++i) {
        (void)fabric.endpoint(1, 0).recv();
        arrivals.push_back(sim::now_ns());
      }
    } else if (p.node == 0) {
      fabric.send(make_msg(0, p.core, 1, 0, 1000));
    }
  });
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 1500);
  EXPECT_EQ(arrivals[1], 2500);
}

TEST(Fabric, IngressSerializesConcurrentArrivals) {
  cluster::MachineConfig cfg;
  cfg.nodes = 3;
  cfg.cores_per_node = 1;
  cfg.network = kBareLink;
  cluster::Machine machine(cfg);
  Fabric& fabric = machine.fabric();
  std::vector<int64_t> arrivals;
  // Nodes 0 and 1 each send 1000B at t=0; both reach node 2 at 500.
  machine.run_per_core([&](const Place& p) {
    if (p.node == 2) {
      for (int i = 0; i < 2; ++i) {
        (void)fabric.endpoint(2, 0).recv();
        arrivals.push_back(sim::now_ns());
      }
    } else {
      fabric.send(make_msg(p.node, 0, 2, 0, 1000));
    }
  });
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 1500);
  EXPECT_EQ(arrivals[1], 2500);  // destination NIC absorbed them in series
}

TEST(Fabric, IngressIsClaimedInArrivalOrder) {
  // Node A issues its message to D first, but A's egress is busy with a
  // large transfer, so the message reaches D late. Node B issues a small
  // message to D afterwards that reaches D first. D's ingress NIC is
  // claimed when a message arrives, not when it is issued: B's message
  // must not queue behind A's.
  constexpr int kA = 0, kB = 1, kD = 2, kE = 3;
  constexpr LinkParams kLink = {.latency_ns = 1000,
                                .bytes_per_ns = 1.0,
                                .send_overhead_ns = 100,
                                .recv_overhead_ns = 50};
  constexpr size_t kBacklogBytes = 10'000, kABytes = 1000, kBBytes = 100;
  cluster::MachineConfig cfg;
  cfg.nodes = 4;
  cfg.cores_per_node = 1;
  cfg.network = kLink;
  cluster::Machine machine(cfg);
  Fabric& fabric = machine.fabric();
  int64_t a_issued = -1, b_issued = -1, a_delivered = -1, b_delivered = -1;
  machine.run_per_core([&](const Place& p) {
    if (p.node == kA) {
      fabric.send(make_msg(kA, 0, kE, 0, kBacklogBytes));
      fabric.send(make_msg(kA, 0, kD, 0, kABytes));
      a_issued = sim::now_ns();
    } else if (p.node == kB) {
      sim::advance_ns(1000);
      fabric.send(make_msg(kB, 0, kD, 0, kBBytes));
      b_issued = sim::now_ns();
    } else if (p.node == kD) {
      for (int i = 0; i < 2; ++i) {
        const Message m = fabric.endpoint(kD, 0).recv();
        (m.src_node == kA ? a_delivered : b_delivered) = sim::now_ns();
      }
    } else {
      (void)fabric.endpoint(kE, 0).recv();
    }
  });
  // A's egress transmits the backlog over [100, 10'100), then A's message.
  const int64_t a_arrival = 100 + kBacklogBytes + kLink.latency_ns;
  const int64_t b_arrival = b_issued + kLink.latency_ns;
  ASSERT_LT(a_issued, b_issued);
  ASSERT_LT(b_arrival, a_arrival);
  EXPECT_EQ(b_delivered,
            b_arrival + static_cast<int64_t>(kBBytes) + kLink.recv_overhead_ns);
  EXPECT_EQ(a_delivered,
            a_arrival + static_cast<int64_t>(kABytes) + kLink.recv_overhead_ns);
}

TEST(Fabric, BundlingBeatsFineGrainedMessages) {
  // The core premise of the PPM runtime: one bundled message is far cheaper
  // than many fine-grained ones of the same total size.
  cluster::Machine machine(two_nodes());
  Fabric& fabric = machine.fabric();
  int64_t fine_done = -1, bundled_done = -1;
  constexpr int kCount = 100;
  constexpr size_t kItem = 16;
  machine.run_per_core([&](const Place& p) {
    if (p.node == 1 && p.core == 0) {
      for (int i = 0; i < kCount; ++i) (void)fabric.endpoint(1, 0).recv();
      fine_done = sim::now_ns();
      (void)fabric.endpoint(1, 0).recv();
      bundled_done = sim::now_ns() - fine_done;
    } else if (p.node == 0 && p.core == 0) {
      for (int i = 0; i < kCount; ++i) {
        fabric.send(make_msg(0, 0, 1, 0, kItem));
      }
      fabric.send(make_msg(0, 0, 1, 0, kItem * kCount));
    }
  });
  EXPECT_GT(fine_done, 20 * bundled_done);
}

TEST(Fabric, StatsCountMessagesAndBytes) {
  cluster::Machine machine(two_nodes());
  Fabric& fabric = machine.fabric();
  machine.run_per_core([&](const Place& p) {
    if (p.node == 1 && p.core == 0) {
      (void)fabric.endpoint(1, 0).recv();
    } else if (p.node == 0 && p.core == 1) {
      (void)fabric.endpoint(0, 1).recv();
    } else if (p.node == 0 && p.core == 0) {
      fabric.send(make_msg(0, 0, 1, 0, 100));
      fabric.send(make_msg(0, 0, 0, 1, 40));
    }
  });
  EXPECT_EQ(fabric.stats().inter_messages.value(), 1u);
  EXPECT_EQ(fabric.stats().inter_bytes.value(), 100u);
  EXPECT_EQ(fabric.stats().intra_messages.value(), 1u);
  EXPECT_EQ(fabric.stats().intra_bytes.value(), 40u);
}

TEST(Fabric, KindFieldRoundTrips) {
  cluster::Machine machine(two_nodes());
  Fabric& fabric = machine.fabric();
  uint64_t kind = 0;
  machine.run_per_core([&](const Place& p) {
    if (p.node == 1 && p.core == 0) {
      kind = fabric.endpoint(1, 0).recv().kind;
    } else if (p.node == 0 && p.core == 0) {
      fabric.send(make_msg(0, 0, 1, 0, 8, /*kind=*/0xfeedface));
    }
  });
  EXPECT_EQ(kind, 0xfeedfaceu);
}

TEST(Fabric, RejectsBadAddresses) {
  cluster::Machine machine(two_nodes());
  Fabric& fabric = machine.fabric();
  machine.run_per_node([&](int node) {
    if (node != 0) return;
    EXPECT_THROW(fabric.send(make_msg(0, 0, 7, 0, 8)), Error);
    EXPECT_THROW(fabric.send(make_msg(0, 0, 1, 9, 8)), Error);
    // A fiber may send only as its own node.
    EXPECT_THROW(fabric.send(make_msg(1, 0, 0, 0, 8)), Error);
  });
  EXPECT_THROW(fabric.endpoint(-1, 0), Error);
}

TEST(Fabric, SendOutsideFiberRejected) {
  cluster::Machine machine(two_nodes());
  EXPECT_THROW(machine.fabric().send(make_msg(0, 0, 1, 0, 8)), Error);
}

TEST(Fabric, TryRecvNonBlocking) {
  cluster::Machine machine(two_nodes());
  Fabric& fabric = machine.fabric();
  bool empty_at_first = false;
  bool got_later = false;
  machine.run_per_core([&](const Place& p) {
    if (p.node == 1 && p.core == 0) {
      Message m;
      empty_at_first = !fabric.endpoint(1, 0).try_recv(&m);
      sim::sleep_for_ns(1'000'000);
      got_later = fabric.endpoint(1, 0).try_recv(&m);
    } else if (p.node == 0 && p.core == 0) {
      fabric.send(make_msg(0, 0, 1, 0, 8));
    }
  });
  EXPECT_TRUE(empty_at_first);
  EXPECT_TRUE(got_later);
}

}  // namespace
}  // namespace ppm::net
