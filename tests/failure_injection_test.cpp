// Failure injection: garbled wire payloads, protocol misuse, resource
// exhaustion corners. The library must fail loudly (ppm::Error), never
// silently corrupt.
#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <string>

#include "cluster/machine.hpp"
#include "core/ppm.hpp"
#include "core/wire.hpp"
#include "mp/comm.hpp"

namespace ppm {
namespace {

TEST(FailureInjection, GarbledTypedPayloadRejected) {
  // A raw 3-byte message decoded as a typed vector must throw, not crash.
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  mp::World world(machine);
  machine.run_per_core([&](const cluster::Place& place) {
    mp::Comm comm = world.comm_at(place);
    if (comm.rank() == 0) {
      comm.send(1, 0, Bytes(3, std::byte{0xff}));
    } else {
      EXPECT_THROW((void)comm.recv_vec<double>(0, 0), Error);
    }
  });
}

TEST(FailureInjection, TruncatedLengthPrefixRejected) {
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  mp::World world(machine);
  machine.run_per_core([&](const cluster::Place& place) {
    mp::Comm comm = world.comm_at(place);
    if (comm.rank() == 0) {
      // Claims 1000 doubles, carries none.
      ByteWriter w;
      w.put<uint64_t>(1000);
      comm.send(1, 0, std::move(w).take());
    } else {
      EXPECT_THROW((void)comm.recv_vec<double>(0, 0), Error);
    }
  });
}

TEST(FailureInjection, MalformedRuntimeMessageRejected) {
  // A truncated GetBlock request sent straight to a node's service port
  // must be detected by the bounds-checked deserializer.
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  EXPECT_THROW(
      machine.run_per_node([&](int node) {
        NodeRuntime& nr = runtime.node(node);
        nr.start();
        if (node == 0) {
          net::Message m;
          m.src_node = 0;
          m.src_port = machine.service_port();
          m.dst_node = 1;
          m.dst_port = machine.service_port();
          m.kind = detail::rt_kind(detail::RtMsg::kGetBlock);
          m.payload = Bytes(2, std::byte{0});  // far too short
          machine.fabric().send(std::move(m));
        }
        Env env(nr);
        env.barrier();
        nr.finish();
      }),
      Error);
}

TEST(FailureInjection, GetForUnknownArrayRejected) {
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  EXPECT_THROW(
      machine.run_per_node([&](int node) {
        NodeRuntime& nr = runtime.node(node);
        nr.start();
        if (node == 0) {
          ByteWriter w;
          w.put<uint32_t>(42);  // no such array
          w.put<uint64_t>(0);   // first
          w.put<uint64_t>(1);   // count
          w.put<uint64_t>(1);   // req id
          w.put<uint64_t>(0);   // epoch: current, so it is served
          net::Message m;
          m.src_node = 0;
          m.src_port = machine.service_port();
          m.dst_node = 1;
          m.dst_port = machine.service_port();
          m.kind = detail::rt_kind(detail::RtMsg::kGetBlock);
          m.payload = std::move(w).take();
          machine.fabric().send(std::move(m));
        }
        Env env(nr);
        env.barrier();
        nr.finish();
      }),
      Error);
}

namespace {
// Send one raw runtime-service message from node 0 to node 1.
void inject(cluster::Machine& machine, detail::RtMsg kind, Bytes payload) {
  net::Message m;
  m.src_node = 0;
  m.src_port = machine.service_port();
  m.dst_node = 1;
  m.dst_port = machine.service_port();
  m.kind = detail::rt_kind(kind);
  m.payload = std::move(payload);
  machine.fabric().send(std::move(m));
}

// Append one write-record head in the runtime's record codec.
void put_head(ByteWriter& w, const detail::RecordHead& h) {
  std::byte buf[detail::kMaxRecordHeadBytes];
  w.put_raw(buf, detail::put_record_head(buf, h));
}

void put_bytes(ByteWriter& w, std::initializer_list<uint8_t> bytes) {
  for (const uint8_t b : bytes) w.put(b);
}
}  // namespace

TEST(FailureInjection, TruncatedPrefetchBlockRejected) {
  // A lookahead request too short to even carry its array id must be
  // caught by the bounds-checked deserializer, not read past the buffer.
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  EXPECT_THROW(
      machine.run_per_node([&](int node) {
        NodeRuntime& nr = runtime.node(node);
        nr.start();
        if (node == 0) {
          inject(machine, detail::RtMsg::kPrefetchBlock,
                 Bytes(2, std::byte{0x5a}));
        }
        Env env(nr);
        env.barrier();
        nr.finish();
      }),
      Error);
}

TEST(FailureInjection, PrefetchForUnknownArrayRejected) {
  // Well-formed prefetch at the current epoch (served, not dropped as
  // stale) for an array id that was never allocated: must fail loudly in
  // serve_get.
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  EXPECT_THROW(
      machine.run_per_node([&](int node) {
        NodeRuntime& nr = runtime.node(node);
        nr.start();
        if (node == 0) {
          ByteWriter w;
          w.put<uint32_t>(42);  // no such array
          w.put<uint64_t>(0);   // first
          w.put<uint64_t>(1);   // count
          w.put<uint64_t>(9);   // req id
          w.put<uint64_t>(0);   // epoch: current, so it is served
          inject(machine, detail::RtMsg::kPrefetchBlock,
                 std::move(w).take());
        }
        Env env(nr);
        env.barrier();
        nr.finish();
      }),
      Error);
}

TEST(FailureInjection, GetTwoEpochsAheadRejected) {
  // A requester's next commit needs the owner's last marker, so it can run
  // at most one epoch ahead; a request further ahead is a protocol error,
  // not a deferral that would wait forever.
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  EXPECT_THROW(
      machine.run_per_node([&](int node) {
        NodeRuntime& nr = runtime.node(node);
        nr.start();
        Env env(nr);
        auto a = env.global_array<uint64_t>(8);
        if (node == 0) {
          ByteWriter w;
          w.put<uint32_t>(a.id());
          w.put<uint64_t>(0);  // first
          w.put<uint64_t>(1);  // count
          w.put<uint64_t>(9);  // req id
          w.put<uint64_t>(2);  // epoch 2 while the owner is at epoch 0
          inject(machine, detail::RtMsg::kGetBlock, std::move(w).take());
        }
        env.barrier();
        nr.finish();
      }),
      Error);
}

TEST(FailureInjection, StalePrefetchSilentlyDropped) {
  // The one legitimate garble: a lookahead that straggles past the
  // requester's commit is dropped without error (the requester abandoned
  // its slot), so a run with such a message still finishes clean.
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  uint64_t seen = 0;
  machine.run_per_node([&](int node) {
    NodeRuntime& nr = runtime.node(node);
    nr.start();
    Env env(nr);
    auto a = env.global_array<uint64_t>(8);
    auto vps = env.ppm_do(1);
    vps.global_phase([&](Vp& vp) { a.set(vp.global_rank(), 5); });
    vps.global_phase([&](Vp&) {});
    if (node == 0) {
      ByteWriter w;
      w.put<uint32_t>(a.id());
      w.put<uint64_t>(0);  // first
      w.put<uint64_t>(1);  // count
      w.put<uint64_t>(9);  // req id
      w.put<uint64_t>(0);  // epoch 0: two commits stale by now
      inject(machine, detail::RtMsg::kPrefetchBlock, std::move(w).take());
    }
    env.barrier();
    vps.global_phase([&](Vp& vp) { seen = a.get(vp.global_rank()); });
    nr.finish();
  });
  EXPECT_EQ(seen, 5u);
}

TEST(FailureInjection, TruncatedBundleRejected) {
  // A write-bundle fragment too short to carry its epoch header must be
  // caught by the bounds-checked deserializer at arrival.
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  EXPECT_THROW(
      machine.run_per_node([&](int node) {
        NodeRuntime& nr = runtime.node(node);
        nr.start();
        if (node == 0) {
          inject(machine, detail::RtMsg::kBundle, Bytes(3, std::byte{0x21}));
        }
        Env env(nr);
        env.barrier();
        nr.finish();
      }),
      Error);
}

TEST(FailureInjection, StaleBundleFragmentRejected) {
  // A sender flushes every fragment of an epoch before its last marker,
  // and the owner commits the epoch only after that marker, so a fragment
  // arriving for an epoch the receiver already committed can only be
  // protocol misuse — rejected loudly, not staged where no commit reads
  // it (unlike stale prefetches, which a requester legitimately abandons).
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  try {
    machine.run_per_node([&](int node) {
      NodeRuntime& nr = runtime.node(node);
      nr.start();
      Env env(nr);
      auto a = env.global_array<uint64_t>(8);
      auto vps = env.ppm_do(1);
      vps.global_phase([&](Vp& vp) { a.set(vp.global_rank(), 1); });
      vps.global_phase([&](Vp&) {});  // two commits: epoch_ is now 2
      if (node == 0) {
        ByteWriter w;
        w.put<uint64_t>(0);  // epoch 0: already committed
        w.put<uint8_t>(0);   // not the last marker
        put_head(w, {.op = 1, .array = a.id(), .index = 4});  // kAdd
        w.put<uint64_t>(9);  // value
        inject(machine, detail::RtMsg::kBundle, std::move(w).take());
      }
      env.barrier();
      vps.global_phase([&](Vp&) {});
      nr.finish();
    });
    ADD_FAILURE() << "stale kBundle fragment accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("already-committed epoch 0"),
              std::string::npos)
        << e.what();
  }
}

namespace {
// Node 0 injects a raw kBundle fragment for epoch 0 (not a last marker)
// carrying `records(array id)` ahead of its real fragments; node 1, which
// owns elements 4..7 of the 8-element array, must reject the batch when
// its first commit parses it, with an error that names `why`.
void expect_bundle_rejected(
    const std::function<void(ByteWriter&, uint32_t)>& records,
    const std::string& why, Distribution dist = Distribution::kBlock) {
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  try {
    machine.run_per_node([&](int node) {
      NodeRuntime& nr = runtime.node(node);
      nr.start();
      Env env(nr);
      auto a = env.global_array<uint64_t>(8, dist);
      if (node == 0) {
        ByteWriter w;
        w.put<uint64_t>(0);  // epoch
        w.put<uint8_t>(0);   // not the last marker
        records(w, a.id());
        inject(machine, detail::RtMsg::kBundle, std::move(w).take());
      }
      auto vps = env.ppm_do(1);
      vps.global_phase([&](Vp& vp) { a.set(vp.global_rank(), 1); });
      nr.finish();
    });
    ADD_FAILURE() << "garbled kBundle fragment accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
}

// Head bytes of a scalar kSet record for element 4 from VP 0.
void put_set_head(ByteWriter& w, uint32_t array, uint32_t seq = 0) {
  put_head(w, {.op = 0, .array = array, .index = 4, .vp_rank = 0, .seq = seq});
}
}  // namespace

TEST(FailureInjection, BundleTruncatedVarintRejected) {
  expect_bundle_rejected([](ByteWriter& w, uint32_t array) {
    // kSet, the array, then an index varint whose continuation bit
    // promises a byte the payload does not have.
    put_bytes(w, {0x00, static_cast<uint8_t>(array), 0x84});
  }, "truncated varint");
}

TEST(FailureInjection, BundleElevenByteVarintRejected) {
  expect_bundle_rejected([](ByteWriter& w, uint32_t array) {
    put_bytes(w, {0x00, static_cast<uint8_t>(array)});
    // Index 0 spelled in 11 bytes: ten continuation bytes, then the end.
    for (int i = 0; i < 10; ++i) w.put<uint8_t>(0x80);
    w.put<uint8_t>(0x00);
    put_bytes(w, {0x00, 0x00});  // vp_rank, seq
    w.put<uint64_t>(1);
  }, "varint longer than 10 bytes");
}

TEST(FailureInjection, BundleInvalidOpRejected) {
  expect_bundle_rejected([](ByteWriter& w, uint32_t array) {
    put_head(w, {.op = 9, .array = array, .index = 4});
    w.put<uint64_t>(1);
  }, "invalid op 9");
}

TEST(FailureInjection, BundleUnknownArrayRejected) {
  expect_bundle_rejected([](ByteWriter& w, uint32_t) {
    put_set_head(w, 42);  // no such array
    w.put<uint64_t>(1);
  }, "unknown array 42");
}

TEST(FailureInjection, BundleRangeCountPastPayloadRejected) {
  expect_bundle_rejected([](ByteWriter& w, uint32_t array) {
    put_head(w, {.op = detail::kOpRangeBit,  // kSet range
                 .array = array,
                 .index = 4,
                 .count = 4});
    w.put<uint64_t>(1);  // two of the four values
    w.put<uint64_t>(2);
  }, "4 elements run past the payload");
}

TEST(FailureInjection, BundleTrailingPartialRecordRejected) {
  expect_bundle_rejected([](ByteWriter& w, uint32_t array) {
    put_set_head(w, array);  // one whole record...
    w.put<uint64_t>(1);
    put_set_head(w, array, 1);  // ...then a head with 3 of 8 value bytes
    put_bytes(w, {0x01, 0x02, 0x03});
  }, "1 elements run past the payload");
}

TEST(FailureInjection, BundleIndexPastArrayEndRejected) {
  // A record whose elements run past its array's end must be rejected
  // before the apply pass's locator reads the owner map with them: on a
  // kAdaptive array that read would run past mig_owner.
  expect_bundle_rejected([](ByteWriter& w, uint32_t array) {
    put_head(w, {.op = 1, .array = array, .index = uint64_t{1} << 20});
    w.put<uint64_t>(1);
  }, "out of range", Distribution::kAdaptive);
  // A range that starts inside the array and spills past its end.
  expect_bundle_rejected([](ByteWriter& w, uint32_t array) {
    put_head(w, {.op = 1 | detail::kOpRangeBit,  // kAdd range
                 .array = array,
                 .index = 6,
                 .count = 4});  // 6 + 4 > 8
    for (int i = 0; i < 4; ++i) w.put<uint64_t>(1);
  }, "out of range", Distribution::kAdaptive);
}

namespace {
// Accumulate-heavy program with plenty of remote traffic:
// every VP accumulates into a shifted window of a global array with a mix
// of add/min/max/xor, over several epochs. Returns the final contents.
std::vector<uint64_t> run_accum_program(bool faults) {
  PpmConfig c;
  c.machine.nodes = 3;
  c.machine.cores_per_node = 2;
  if (faults) {
    c.machine.faults.delay_jitter = true;
    c.machine.faults.seed = 23;
    c.machine.faults.delay_probability = 0.5;
    c.machine.faults.max_extra_delay_ns = 100'000;
  }
  constexpr uint64_t kN = 64;
  std::vector<uint64_t> out;
  run(c, [&](Env& env) {
    auto a = env.global_array<uint64_t>(kN);
    env.register_accum_op<uint64_t>(
        a, 0, +[](uint64_t& x, const uint64_t& v) { x ^= v; });
    auto vps = env.ppm_do(4);
    for (int round = 0; round < 3; ++round) {
      vps.global_phase([&](Vp& vp) {
        const uint64_t r = vp.global_rank();
        a.accumulate((r * 7 + 11) % kN, ReduceOp::kAdd, r + 1);
        a.accumulate((r * 5 + 3) % kN, ReduceOp::kMax, r * 100);
        a.accumulate((r * 3 + 1) % kN, ReduceOp::kUser0, r * 0x9e37);
      });
    }
    vps.global_phase([&](Vp& vp) {
      if (vp.global_rank() == 0) {
        for (uint64_t i = 0; i < kN; ++i) out.push_back(a.get(i));
      }
    });
  });
  return out;
}
}  // namespace

TEST(FailureInjection, FaultDelayedAccumTrafficIsDeterministic) {
  // Seeded fabric jitter delays the kBundle fragments that carry the
  // accumulates, but the per-(src,dst,port) FIFO plus the commit's
  // (VP rank, seq) apply order keep the committed state bit-identical to
  // the fault-free run — and the faulted run replays byte-for-byte.
  const std::vector<uint64_t> clean = run_accum_program(false);
  const std::vector<uint64_t> faulted1 = run_accum_program(true);
  const std::vector<uint64_t> faulted2 = run_accum_program(true);
  ASSERT_EQ(clean.size(), 64u);
  EXPECT_EQ(clean, faulted1);
  EXPECT_EQ(faulted1, faulted2);
}

TEST(FailureInjection, TruncatedMigrateBlockRejected) {
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  EXPECT_THROW(
      machine.run_per_node([&](int node) {
        NodeRuntime& nr = runtime.node(node);
        nr.start();
        if (node == 0) {
          inject(machine, detail::RtMsg::kMigrateBlock,
                 Bytes(3, std::byte{0x7f}));
        }
        Env env(nr);
        env.barrier();
        nr.finish();
      }),
      Error);
}

TEST(FailureInjection, UnplannedMigrateBlockRejected) {
  // A well-formed migration payload nobody planned: the receiver stages
  // it, and the next migration round's arrival count check must reject it
  // rather than splice foreign bytes into committed storage.
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  EXPECT_THROW(
      machine.run_per_node([&](int node) {
        NodeRuntime& nr = runtime.node(node);
        nr.start();
        Env env(nr);
        auto a = env.global_array<uint64_t>(64, Distribution::kAdaptive);
        if (node == 0) {
          ByteWriter w;
          w.put<uint32_t>(a.id());
          w.put<uint64_t>(0);               // block 0
          for (int i = 0; i < 8; ++i) w.put<uint64_t>(0xdead);  // elems
          inject(machine, detail::RtMsg::kMigrateBlock, std::move(w).take());
        }
        a.rebalance();  // force a migration round at the next commit
        auto vps = env.ppm_do(1);
        vps.global_phase([&](Vp& vp) { a.set(vp.global_rank(), 1); });
        nr.finish();
      }),
      Error);
}

TEST(FailureInjection, MismatchedReduceContributionsRejected) {
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  mp::World world(machine);
  EXPECT_THROW(machine.run_per_core([&](const cluster::Place& place) {
    mp::Comm comm = world.comm_at(place);
    // Rank 0 contributes 2 elements, rank 1 contributes 3.
    std::vector<long> mine(comm.rank() == 0 ? 2 : 3, 1);
    (void)comm.reduce(std::span<const long>(mine),
                      [](long a, long b) { return a + b; }, 0);
  }),
               Error);
}

TEST(FailureInjection, AlltoallvWrongBlockCountRejected) {
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  mp::World world(machine);
  EXPECT_THROW(machine.run_per_core([&](const cluster::Place& place) {
    mp::Comm comm = world.comm_at(place);
    std::vector<std::vector<int>> blocks(1);  // need size() == 2
    (void)comm.alltoallv(blocks);
  }),
               Error);
}

TEST(FailureInjection, DoubleStartRejected) {
  cluster::Machine machine({.nodes = 1, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  EXPECT_THROW(machine.run_per_node([&](int node) {
    NodeRuntime& nr = runtime.node(node);
    nr.start();
    nr.start();  // misuse
  }),
               Error);
}

TEST(FailureInjection, FinishWithoutStartRejected) {
  cluster::Machine machine({.nodes = 1, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  EXPECT_THROW(
      machine.run_per_node([&](int node) { runtime.node(node).finish(); }),
      Error);
}

TEST(FailureInjection, StragglerNodeStillSynchronizes) {
  // One node arrives at each phase long after the others (heavy modeled
  // compute): phases must still commit the same values.
  PpmConfig cfg;
  cfg.machine.nodes = 3;
  cfg.machine.cores_per_node = 2;
  int64_t total = -1;
  run(cfg, [&](Env& env) {
    auto a = env.global_array<int64_t>(3);
    auto vps = env.ppm_do(1);
    for (int round = 0; round < 5; ++round) {
      vps.global_phase([&](Vp&) {
        if (env.node_id() == 1) {
          sim::advance_ns(2'000'000);  // 2 ms straggler every phase
        }
        a.add(static_cast<uint64_t>(env.node_id()), 1);
      });
    }
    vps.global_phase([&](Vp&) {
      if (env.node_id() == 0) {
        total = a.get(0) + a.get(1) + a.get(2);
      }
    });
  });
  EXPECT_EQ(total, 15);
}

}  // namespace
}  // namespace ppm
