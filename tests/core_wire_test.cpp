// The write-record codec (core/wire.hpp): every field round-trips at the
// extremes of its type, each varint takes exactly the bytes its value
// needs, garbled varints are rejected, and a bundle of remote writes costs
// on the wire exactly what the codec says a record costs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/ppm.hpp"
#include "core/wire.hpp"

namespace ppm {
namespace {

using detail::RecordHead;

RecordHead round_trip(const RecordHead& h, size_t want_bytes) {
  std::byte buf[detail::kMaxRecordHeadBytes];
  const size_t n = detail::put_record_head(buf, h);
  EXPECT_EQ(n, want_bytes);
  RecordHead got;
  const std::byte* end = detail::get_record_head(buf, buf + n, &got);
  EXPECT_EQ(end, buf + n);
  return got;
}

TEST(WireCodec, RecordHeadRoundTripsAtTheExtremes) {
  for (const bool range : {false, true}) {
    const RecordHead h{
        .op = static_cast<uint8_t>(
            static_cast<uint8_t>(detail::WriteOp::kUser2) |
            (range ? detail::kOpRangeBit : 0)),
        .array = UINT32_MAX,
        .index = UINT64_MAX,
        .vp_rank = UINT64_MAX,
        .seq = UINT32_MAX,
        .count = UINT32_MAX};
    // op, array (32 bits: 5 bytes), index (64 bits: 10 bytes), vp_rank
    // (10), seq (5), then count (5) for a range.
    const size_t want = 1 + 5 + 10 + 10 + 5 + (range ? 5 : 0);
    const RecordHead got = round_trip(h, want);
    EXPECT_EQ(got.op, h.op);
    EXPECT_EQ(got.array, h.array);
    EXPECT_EQ(got.index, h.index);
    EXPECT_EQ(got.vp_rank, h.vp_rank);
    EXPECT_EQ(got.seq, h.seq);
    EXPECT_EQ(got.count, range ? h.count : 1u);
  }
  // The smallest record head: every field below 128.
  const RecordHead small{.op = 1, .array = 3, .index = 127, .vp_rank = 0,
                         .seq = 5};
  const RecordHead got = round_trip(small, 5);
  EXPECT_EQ(got.index, 127u);
  EXPECT_EQ(got.seq, 5u);
}

TEST(WireCodec, VarintTakesTheBytesItsValueNeeds) {
  const std::vector<std::pair<uint64_t, size_t>> cases = {
      {0, 1},          {127, 1},         {128, 2},
      {16383, 2},      {16384, 3},       {UINT32_MAX, 5},
      {1ull << 63, 10}, {UINT64_MAX, 10}};
  for (const auto& [v, bytes] : cases) {
    std::byte buf[detail::kMaxVarintBytes];
    const std::byte* end = detail::put_varint(buf, v);
    EXPECT_EQ(static_cast<size_t>(end - buf), bytes) << v;
    EXPECT_EQ(detail::varint_bytes(v), bytes) << v;
    uint64_t got = 0;
    EXPECT_EQ(detail::get_varint(buf, end, &got), end);
    EXPECT_EQ(got, v);
  }
}

// get_record_head over `bytes` must throw a ppm::Error naming `why`.
template <size_t N>
void expect_head_rejected(const std::byte (&bytes)[N], const std::string& why) {
  RecordHead h;
  try {
    detail::get_record_head(bytes, bytes + N, &h);
    ADD_FAILURE() << "garbled record head accepted; wanted: " << why;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
}

TEST(WireCodec, GarbledVarintsAndHeadsRejected) {
  uint64_t v = 0;
  const std::byte truncated[] = {std::byte{0x81}, std::byte{0x81}};
  EXPECT_THROW(detail::get_varint(truncated, truncated + 2, &v), Error);
  std::byte eleven[11];
  for (auto& b : eleven) b = std::byte{0x80};
  eleven[10] = std::byte{0x00};
  EXPECT_THROW(detail::get_varint(eleven, eleven + 11, &v), Error);
  // Ten bytes whose last carries more than bit 63.
  std::byte wide[10];
  for (auto& b : wide) b = std::byte{0xff};
  wide[9] = std::byte{0x02};
  EXPECT_THROW(detail::get_varint(wide, wide + 10, &v), Error);

  // op 8 (kOpRangeBit stripped) is outside WriteOp.
  const std::byte bad_op[] = {std::byte{0x88}, std::byte{0}, std::byte{0},
                              std::byte{0}, std::byte{0}, std::byte{1}};
  expect_head_rejected(bad_op, "invalid op 8");
  // An array id past 32 bits.
  std::byte wide_array[8] = {std::byte{1}};
  detail::put_varint(wide_array + 1, uint64_t{1} << 32);
  expect_head_rejected(wide_array, "array id 4294967296 too wide");
  // A range of zero elements: op, array 0, index 0, VP rank 0, seq 0,
  // count 0. Every field is present, so only the empty count can fail.
  const std::byte empty_range[] = {std::byte{0x81}, std::byte{0},
                                   std::byte{0},    std::byte{0},
                                   std::byte{0},    std::byte{0}};
  expect_head_rejected(empty_range, "empty range");
}

// Two nodes; node 0's one VP sends `updates` int64 min_updates to
// distinct elements of node 1's chunk (elements 128..255).
RunResult run_min_updates(uint64_t updates) {
  PpmConfig c;
  c.machine.nodes = 2;
  c.machine.cores_per_node = 1;
  return run(c, [&](Env& env) {
    auto a = env.global_array<int64_t>(256);
    auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    vps.global_phase([&](Vp&) {
      for (uint64_t j = 0; j < updates; ++j) {
        a.min_update(128 + j, -static_cast<int64_t>(j));
      }
    });
  });
}

TEST(WireCodec, BundleBytesArePinned) {
  constexpr uint64_t kUpdates = 100;
  const RunResult none = run_min_updates(0);
  const RunResult some = run_min_updates(kUpdates);
  // The records ride the last-marker fragment node 0 sends anyway.
  EXPECT_EQ(some.bundles_sent, none.bundles_sent);
  EXPECT_EQ(some.network_messages, none.network_messages);
  // op 1 + array 1 + index 2 (128..227) + VP rank 1 (rank 0) + seq 1
  // (0..99) + the int64 value 8.
  constexpr uint64_t kRecordBytes = 1 + 1 + 2 + 1 + 1 + 8;
  EXPECT_EQ(some.network_bytes - none.network_bytes, kUpdates * kRecordBytes);
}

}  // namespace
}  // namespace ppm
