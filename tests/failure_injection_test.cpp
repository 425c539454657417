// Failure injection: garbled wire payloads, protocol misuse, resource
// exhaustion corners. The library must fail loudly (ppm::Error), never
// silently corrupt.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

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

// Append one block-request item spelled out byte by byte, so the tests do
// not lean on the codec they check: the array id shifted left once with
// the prefetch flag in bit 0, then first, count and the request id. Every
// field is a one-byte varint.
void put_item(ByteWriter& w, uint32_t array, bool prefetch, uint8_t first,
              uint8_t count, uint8_t req_id) {
  put_bytes(w, {static_cast<uint8_t>(array << 1 | (prefetch ? 1 : 0)), first,
                count, req_id});
}
}  // namespace

TEST(FailureInjection, MalformedRuntimeMessageRejected) {
  // A block-request list that promises an item and ends, sent straight to
  // a node's service port, must be detected by the bounds-checked decoder.
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  EXPECT_THROW(
      machine.run_per_node([&](int node) {
        NodeRuntime& nr = runtime.node(node);
        nr.start();
        if (node == 0) {
          ByteWriter w;
          put_bytes(w, {0, 1});  // epoch 0, one item, then nothing
          inject(machine, detail::RtMsg::kGetBlockList, std::move(w).take());
        }
        Env env(nr);
        env.barrier();
        nr.finish();
      }),
      Error);
}

namespace {
// Node 0 sends node 1 a raw get request of `kind` built by
// `request(array id)`; node 1, which owns elements 4..7 of the 8-element
// array and is at epoch 0, must reject it with an error that names `why`.
void expect_get_rejected(
    detail::RtMsg kind,
    const std::function<void(ByteWriter&, uint32_t)>& request,
    const std::string& why) {
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  try {
    machine.run_per_node([&](int node) {
      NodeRuntime& nr = runtime.node(node);
      nr.start();
      Env env(nr);
      auto a = env.global_array<uint64_t>(8);
      if (node == 0) {
        ByteWriter w;
        request(w, a.id());
        inject(machine, kind, std::move(w).take());
      }
      env.barrier();
      nr.finish();
    });
    ADD_FAILURE() << "get request accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
}

void expect_list_rejected(
    const std::function<void(ByteWriter&, uint32_t)>& request,
    const std::string& why) {
  expect_get_rejected(detail::RtMsg::kGetBlockList, request, why);
}
}  // namespace

TEST(FailureInjection, GetForUnknownArrayRejected) {
  // A well-formed request at the current epoch (served, not dropped as
  // stale) for an array id that was never allocated must fail loudly in
  // serve_get, whether it asks for a demand or a lookahead block.
  for (const bool prefetch : {false, true}) {
    expect_list_rejected([&](ByteWriter& w, uint32_t) {
      put_bytes(w, {0, 1});  // epoch 0, one item
      put_item(w, 42, prefetch, 0, 1, 9);  // no such array
    }, "unknown shared array id 42");
  }
}

TEST(FailureInjection, TruncatedPrefetchBlockRejected) {
  // A lookahead item cut off inside its request id varint must be caught
  // by the bounds-checked decoder, not read past the buffer.
  expect_list_rejected([](ByteWriter& w, uint32_t array) {
    put_bytes(w, {0, 1});  // epoch 0, one item
    put_bytes(w, {static_cast<uint8_t>(array << 1 | 1), 0, 1});
    put_bytes(w, {0x89});  // continuation bit, then the payload ends
  }, "truncated varint");
}

TEST(FailureInjection, GetTwoEpochsAheadRejected) {
  // A requester's next commit needs the owner's last marker, so it can run
  // at most one epoch ahead; a request further ahead is a protocol error,
  // not a deferral that would wait forever.
  expect_list_rejected([](ByteWriter& w, uint32_t array) {
    put_bytes(w, {2, 1});  // epoch 2 while the owner is at epoch 0
    put_item(w, array, false, 0, 1, 9);
  }, "get request for epoch 2, more than one ahead of 0");
}

namespace {
// Node 0 runs two global phases with node 1, so node 1 has committed
// epoch 0 before anything node 0 sends next arrives, then sends it the
// epoch-0 block-request list `items(array id)`. Returns node 1's error,
// or "" when the run finishes.
std::string run_with_stale_list(
    const std::function<void(ByteWriter&, uint32_t)>& items) {
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  try {
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
        put_bytes(w, {0});  // epoch 0: two commits stale by now
        items(w, a.id());
        inject(machine, detail::RtMsg::kGetBlockList, std::move(w).take());
      }
      env.barrier();
      vps.global_phase([&](Vp& vp) { seen = a.get(vp.global_rank()); });
      nr.finish();
    });
    EXPECT_EQ(seen, 5u);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}
}  // namespace

TEST(FailureInjection, StalePrefetchSilentlyDropped) {
  // The one legitimate garble: lookahead items that straggle past the
  // requester's commit are dropped without error (the requester abandoned
  // their slots), so a run with such a list still finishes clean.
  EXPECT_EQ(run_with_stale_list([](ByteWriter& w, uint32_t array) {
              put_bytes(w, {2});  // items
              put_item(w, array, true, 0, 1, 9);
              put_item(w, array, true, 1, 1, 10);
            }),
            "");
}

TEST(FailureInjection, StaleListWithADemandItemRejected) {
  // A demand requester parks until it is served, so its node cannot
  // commit past the request: a stale list holding a demand item, even
  // behind a lookahead item, is a protocol error.
  const std::string error = run_with_stale_list([](ByteWriter& w,
                                                   uint32_t array) {
    put_bytes(w, {2});  // items
    put_item(w, array, true, 0, 1, 9);
    put_item(w, array, false, 1, 1, 10);
  });
  EXPECT_NE(error.find("stale fetch list contains a demand item"),
            std::string::npos)
      << error;
}

TEST(FailureInjection, GetBlockRangeThatWrapsRejected) {
  // first + count wraps around to 1, which is inside node 1's four
  // elements: a check of the sum would accept the first item and copy
  // from 8 bytes before the owner's storage.
  expect_list_rejected([](ByteWriter& w, uint32_t array) {
    put_bytes(w, {0, 2});  // epoch 0, two items
    detail::put_varint(w, uint64_t{array} << 1);  // demand
    detail::put_varint(w, UINT64_MAX);             // first
    put_bytes(w, {2, 9});                          // count, req id
    put_item(w, array, false, 0, 1, 10);
  }, "outside node 1's storage");
}

TEST(FailureInjection, BlockListTrailingBytesRejected) {
  // One whole item, then a byte that starts no item the count promised.
  expect_list_rejected([](ByteWriter& w, uint32_t array) {
    put_bytes(w, {0, 1});  // epoch 0, one item
    put_item(w, array, false, 0, 1, 9);
    put_bytes(w, {0});
  }, "1 bytes after the last item");
}

TEST(FailureInjection, BlockRequestArrayIdTooWideRejected) {
  // Array id 2^32 + array: cut to 32 bits it would name a real array, and
  // the item would be served.
  expect_list_rejected([](ByteWriter& w, uint32_t array) {
    put_bytes(w, {0, 1});  // epoch 0, one item
    detail::put_varint(w, (uint64_t{1} << 32 | array) << 1);  // demand
    put_bytes(w, {0, 1, 9});  // first, count, req id
  }, "array id 4294967296 too wide");
}

TEST(FailureInjection, GarbledIndexedGetRejected) {
  // A gather request takes the same framing: epoch, array, request id,
  // index count and indices, all varints.
  expect_get_rejected(detail::RtMsg::kGetIndexed, [](ByteWriter& w,
                                                     uint32_t array) {
    put_bytes(w, {0, static_cast<uint8_t>(array), 9, 1, 0});
    put_bytes(w, {0});  // a byte after the one index
  }, "1 bytes after the last index");
  expect_get_rejected(detail::RtMsg::kGetIndexed, [](ByteWriter& w,
                                                     uint32_t array) {
    put_bytes(w, {0});  // epoch
    detail::put_varint(w, uint64_t{1} << 32 | array);
    put_bytes(w, {9, 1, 0});  // req id, one index: 0
  }, "array id 4294967296 too wide");
}

TEST(FailureInjection, ShortBlockResponseRejectedOnArrival) {
  // Node 1 starts no runtime: its program answers node 0's block fetch
  // itself, with one element where the request asked for 32. The
  // requester must reject the response when it arrives, before read_n
  // copies 32 elements out of an 8-byte payload.
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  try {
    machine.run_per_node([&](int node) {
      if (node == 1) {
        net::Message req =
            machine.fabric().endpoint(1, machine.service_port()).recv();
        ASSERT_EQ(detail::rt_class(req.kind), detail::RtMsg::kGetBlockList);
        const std::byte* end = req.payload.data() + req.payload.size();
        uint64_t epoch = 1;
        const std::byte* p =
            detail::get_varint(req.payload.data(), end, &epoch);
        EXPECT_EQ(epoch, 0u);
        const auto items = detail::decode_block_requests(p, end);
        ASSERT_EQ(items.size(), 1u);
        EXPECT_EQ(items[0].first, 0u);
        EXPECT_EQ(items[0].count, 32u);
        EXPECT_FALSE(items[0].prefetch);
        ByteWriter w;
        w.put(items[0].req_id);
        w.put<uint64_t>(7);  // one element
        net::Message m;
        m.src_node = 1;
        m.src_port = machine.service_port();
        m.dst_node = 0;
        m.dst_port = machine.service_port();
        m.kind = detail::rt_kind(detail::RtMsg::kGetResp);
        m.payload = std::move(w).take();
        machine.fabric().send(std::move(m));
        return;
      }
      NodeRuntime& nr = runtime.node(node);
      nr.start();
      Env env(nr);
      auto a = env.global_array<uint64_t>(64);  // node 1 owns 32..63
      std::vector<uint64_t> out(32);
      a.read_n(32, 32, out.data());
      nr.finish();
    });
    ADD_FAILURE() << "short block response accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "carries 8 bytes, the request asked for 256"),
              std::string::npos)
        << e.what();
  }
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

TEST(FailureInjection, BundleTwoEpochsAheadRejected) {
  // A sender runs at most one epoch ahead: to write in epoch e + 2 it
  // must first commit e + 1, which needs this node's marker for that
  // epoch. A fragment further ahead is protocol misuse, not a write to
  // stage for a later commit.
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  try {
    machine.run_per_node([&](int node) {
      NodeRuntime& nr = runtime.node(node);
      nr.start();
      Env env(nr);
      auto a = env.global_array<uint64_t>(8);
      if (node == 0) {
        ByteWriter w;
        w.put<uint64_t>(2);  // epoch 2 while the owner is at epoch 0
        w.put<uint8_t>(0);   // not the last marker
        put_head(w, {.op = 1, .array = a.id(), .index = 4});  // kAdd
        w.put<uint64_t>(9);  // value
        inject(machine, detail::RtMsg::kBundle, std::move(w).take());
      }
      auto vps = env.ppm_do(1);
      for (int phase = 0; phase < 3; ++phase) vps.global_phase([](Vp&) {});
      nr.finish();
    });
    ADD_FAILURE() << "kBundle fragment two epochs ahead accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "write bundle for epoch 2, more than one ahead of 0"),
              std::string::npos)
        << e.what();
  }
}

namespace {
// Node 0 injects a raw kBundle fragment for epoch 0 (not a last marker)
// carrying `records(array id)` ahead of its real fragments; node 1, which
// owns elements 4..7 of the 8-element array of T, must reject the batch
// when its first commit parses it, with an error that names `why`.
template <typename T = uint64_t>
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
      auto a = env.global_array<T>(8, dist);
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
// Head bytes of a scalar kSet record for element 4 from VP 0 whose value
// is a varint.
void put_varint_set_head(ByteWriter& w, uint32_t array) {
  put_head(w, {.op = detail::kOpVarintBit, .array = array, .index = 4});
}
}  // namespace

TEST(FailureInjection, BundleTruncatedValueVarintRejected) {
  expect_bundle_rejected([](ByteWriter& w, uint32_t array) {
    put_varint_set_head(w, array);
    put_bytes(w, {0x85});  // continuation bit, then the payload ends
  }, "truncated varint");
}

TEST(FailureInjection, BundleElevenByteValueVarintRejected) {
  expect_bundle_rejected([](ByteWriter& w, uint32_t array) {
    put_varint_set_head(w, array);
    // The value 0 spelled in 11 bytes: ten continuation bytes, then the
    // end.
    for (int i = 0; i < 10; ++i) w.put<uint8_t>(0x80);
    w.put<uint8_t>(0x00);
  }, "varint longer than 10 bytes");
}

TEST(FailureInjection, BundleValueVarintTooWideRejected) {
  // Zigzag 65536 is the image of 32768, which no 2-byte integer holds.
  expect_bundle_rejected<uint16_t>([](ByteWriter& w, uint32_t array) {
    put_varint_set_head(w, array);
    put_bytes(w, {0x80, 0x80, 0x04});
  }, "value varint 65536 does not fit a 2-byte element");
}

TEST(FailureInjection, BundleVarintValueOnFloatingPointArrayRejected) {
  expect_bundle_rejected<double>([](ByteWriter& w, uint32_t array) {
    put_varint_set_head(w, array);
    put_bytes(w, {0x02});
  }, "varint values for array 0, whose elements are not 2-, 4- or 8-byte "
     "integers");
}

namespace {
// Node 0 stands in for its own epoch-0 last marker with a raw kBundle
// fragment (header `flags`, then `body`) and never commits; node 1, with
// one reduce over a uint64 array pending when `reduce` (9 bytes of
// partials), runs one global phase and must reject the marker — on
// arrival or at its commit — with an error that names `why`.
void expect_marker_rejected(uint8_t flags,
                            const std::function<void(ByteWriter&)>& body,
                            bool reduce, const std::string& why) {
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  try {
    machine.run_per_node([&](int node) {
      NodeRuntime& nr = runtime.node(node);
      nr.start();
      Env env(nr);
      auto a = env.global_array<uint64_t>(8);
      auto vps = env.ppm_do(1);
      if (node == 0) {
        ByteWriter w;
        w.put<uint64_t>(0);  // epoch
        w.put(flags);
        body(w);
        inject(machine, detail::RtMsg::kBundle, std::move(w).take());
        return;
      }
      if (reduce) (void)env.reduce(a, ReduceOp::kAdd);
      vps.global_phase([](Vp&) {});
      nr.finish();
    });
    ADD_FAILURE() << "garbled reduce partials accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
}

constexpr uint8_t kLastWithPartials =
    detail::kFragmentLast | detail::kFragmentPartials;

// A reduce-partials trailer: `partial_bytes` bytes of partials (a has_value
// byte, then zeros), their u32 count, then the flags byte.
void put_trailer(ByteWriter& w, uint32_t partial_bytes, uint8_t flags = 0) {
  for (uint32_t j = 0; j < partial_bytes; ++j) {
    w.put<uint8_t>(j == 0 ? 1 : 0);
  }
  w.put(partial_bytes);
  w.put(flags);
}
}  // namespace

TEST(FailureInjection, PartialsTrailerLongerThanItsFragmentRejected) {
  // The count claims 100 bytes of partials in a 5-byte trailer.
  expect_marker_rejected(kLastWithPartials, [](ByteWriter& w) {
    w.put<uint32_t>(100);
    w.put<uint8_t>(0);
  }, /*reduce=*/true, "trailer of 105 bytes longer than its 5-byte fragment");
  // Too short for even the count and the flags byte.
  expect_marker_rejected(kLastWithPartials, [](ByteWriter& w) {
    w.put<uint16_t>(0);
  }, /*reduce=*/true, "trailer longer than its 2-byte fragment");
}

TEST(FailureInjection, PartialsTrailerOnANonLastFragmentRejected) {
  expect_marker_rejected(detail::kFragmentPartials, [](ByteWriter& w) {
    put_trailer(w, 9);
  }, /*reduce=*/true, "trailer on a write bundle fragment that is not a last "
                      "marker");
}

TEST(FailureInjection, PartialsTrailerUnknownFlagBitRejected) {
  expect_marker_rejected(kLastWithPartials, [](ByteWriter& w) {
    put_trailer(w, 9, /*flags=*/0x80);
  }, /*reduce=*/true, "unknown flag bits 0x80 in the fragment's last byte");
}

TEST(FailureInjection, PartialsOfTheWrongSizeRejected) {
  // One uint64 reduce takes 9 bytes of partials on every node.
  expect_marker_rejected(kLastWithPartials, [](ByteWriter& w) {
    put_trailer(w, 5);
  }, /*reduce=*/true, "node 0 carried 5 bytes of reduce partials, the "
                      "pending reduces here take 9");
}

TEST(FailureInjection, PartialsTrailerWithoutAPendingReduceRejected) {
  expect_marker_rejected(kLastWithPartials, [](ByteWriter& w) {
    put_trailer(w, 9);
  }, /*reduce=*/false, "last marker from node 0 carries reduce partials, but "
                       "commit 0 has no pending reduce");
}

TEST(FailureInjection, CensusBlobForANodePastTheLastRejected) {
  // Node 0 stands in for its own token of a two-node census that carries
  // blobs: its one count for node 1, then one blob tagged node 5.
  cluster::Machine machine({.nodes = 2, .cores_per_node = 1});
  Runtime runtime(machine, RuntimeOptions{});
  try {
    machine.run_per_node([&](int node) {
      NodeRuntime& nr = runtime.node(node);
      nr.start();
      if (node == 0) {
        ByteWriter w;
        w.put<uint64_t>(0);  // token seq: the first collective
        w.put<uint32_t>(0);  // round
        w.put<uint32_t>(1);  // node 0's count for node 1
        put_bytes(w, {1, 5, 1, 0x2a});  // one blob: node 5, one byte
        inject(machine, detail::RtMsg::kToken, std::move(w).take());
        return;
      }
      std::vector<Bytes> blobs(2);
      blobs[1] = Bytes(1, std::byte{7});
      (void)nr.reduce_scatter_sum({0, 1}, &blobs);
      nr.finish();
    });
    ADD_FAILURE() << "census blob for node 5 of 2 accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("census blob for node 5 of 2"),
              std::string::npos)
        << e.what();
  }
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
