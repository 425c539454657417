// The wire codecs (core/wire.hpp): every write-record and block-request
// field round-trips at the extremes of its type, each varint takes exactly
// the bytes its value needs, integral values round-trip bit-exactly as
// varints exactly where that is shorter, garbled varints are rejected, and
// a bundle of remote writes costs on the wire exactly what the codec says
// a record costs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
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

// Encode `items` at `epoch`, check the payload is `want_bytes` long, and
// decode it back.
std::vector<detail::BlockRequest> block_requests_round_trip(
    uint64_t epoch, const std::vector<detail::BlockRequest>& items,
    size_t want_bytes) {
  const Bytes bytes = detail::encode_block_requests(epoch, items);
  EXPECT_EQ(bytes.size(), want_bytes);
  const std::byte* end = bytes.data() + bytes.size();
  uint64_t got_epoch = 0;
  const std::byte* p = detail::get_varint(bytes.data(), end, &got_epoch);
  EXPECT_EQ(got_epoch, epoch);
  return detail::decode_block_requests(p, end);
}

TEST(WireCodec, BlockRequestsRoundTripAtTheExtremes) {
  const detail::BlockRequest max{.array = UINT32_MAX,
                                 .first = UINT64_MAX,
                                 .count = UINT64_MAX,
                                 .req_id = UINT64_MAX,
                                 .prefetch = true};
  // epoch (10), item count (1), array << 1 | prefetch (33 bits: 5),
  // first, count and request id (10 each).
  const auto got = block_requests_round_trip(UINT64_MAX, {max},
                                             10 + 1 + 5 + 3 * 10);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].array, max.array);
  EXPECT_EQ(got[0].first, max.first);
  EXPECT_EQ(got[0].count, max.count);
  EXPECT_EQ(got[0].req_id, max.req_id);
  EXPECT_TRUE(got[0].prefetch);

  // Small fields take a byte each, and the prefetch flag is bit 0 of the
  // item's first varint.
  const std::vector<detail::BlockRequest> small = {
      {.array = 1, .first = 2, .count = 3, .req_id = 4, .prefetch = false},
      {.array = 5, .first = 6, .count = 7, .req_id = 8, .prefetch = true}};
  const Bytes bytes = detail::encode_block_requests(9, small);
  const std::vector<uint8_t> want = {9, 2, 2, 2, 3, 4, 11, 6, 7, 8};
  ASSERT_EQ(bytes.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(static_cast<uint8_t>(bytes[i]), want[i]) << "byte " << i;
  }
  const auto back = block_requests_round_trip(9, small, want.size());
  ASSERT_EQ(back.size(), 2u);
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(back[k].array, small[k].array);
    EXPECT_EQ(back[k].first, small[k].first);
    EXPECT_EQ(back[k].count, small[k].count);
    EXPECT_EQ(back[k].req_id, small[k].req_id);
    EXPECT_EQ(back[k].prefetch, small[k].prefetch);
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

  // A value varint must fit its element. Zigzag 65536 is the image of
  // 32768: too wide for a 2-byte element, fine for a 4-byte one. Zigzag
  // 2^32 is the image of 2^31, too wide for 4 bytes.
  std::byte out[sizeof(uint64_t)];
  const std::byte z16[] = {std::byte{0x80}, std::byte{0x80}, std::byte{0x04}};
  EXPECT_THROW(detail::get_varint_value(z16, z16 + 3, 2, out), Error);
  EXPECT_EQ(detail::get_varint_value(z16, z16 + 3, 4, out), z16 + 3);
  const std::byte z32[] = {std::byte{0x80}, std::byte{0x80}, std::byte{0x80},
                           std::byte{0x80}, std::byte{0x10}};
  EXPECT_THROW(detail::get_varint_value(z32, z32 + 5, 4, out), Error);
}

// Encode one record of `values` (a range when there is more than one) for
// elements of type T, check that it is no longer than its raw form, decode
// it back bit-exactly, and return whether it took varint values.
template <typename T>
bool value_round_trip(const std::vector<T>& values) {
  const bool range = values.size() != 1;
  const RecordHead h{
      .op = static_cast<uint8_t>(static_cast<uint8_t>(detail::WriteOp::kMin) |
                                 (range ? detail::kOpRangeBit : 0)),
      .array = 2,
      .index = 40,
      .vp_rank = 3,
      .seq = 7,
      .count = static_cast<uint32_t>(values.size())};
  ByteWriter w;
  detail::put_record(w, h, reinterpret_cast<const std::byte*>(values.data()),
                     sizeof(T), std::is_integral_v<T>);
  const Bytes bytes = std::move(w).take();
  std::byte head[detail::kMaxRecordHeadBytes];
  const size_t head_bytes = detail::put_record_head(head, h);
  EXPECT_LE(bytes.size(), head_bytes + values.size() * sizeof(T));

  const std::byte* end = bytes.data() + bytes.size();
  RecordHead got;
  const std::byte* p = detail::get_record_head(bytes.data(), end, &got);
  EXPECT_EQ(detail::entry_op(got.op), detail::WriteOp::kMin);
  EXPECT_EQ(detail::entry_is_range(got.op), range);
  EXPECT_EQ(got.count, h.count);
  const bool varint = detail::entry_is_varint(got.op);
  for (const T& want : values) {
    std::byte raw[sizeof(uint64_t)];
    if (varint) {
      p = detail::get_varint_value(p, end, sizeof(T), raw);
    } else {
      std::memcpy(raw, p, sizeof(T));
      p += sizeof(T);
    }
    T v;
    std::memcpy(&v, raw, sizeof(T));
    EXPECT_EQ(std::memcmp(&v, &want, sizeof(T)), 0)
        << +want << " decoded as " << +v;
  }
  EXPECT_EQ(p, end);
  return varint;
}

// Scalar records of T at 0, +-1, the type's extremes and the edge of the
// varint form: a w-byte value stays a varint while its zigzag image fits
// w - 1 varint bytes, i.e. over [-2^(7(w-1)-1), 2^(7(w-1)-1) - 1] read as
// a signed w-byte integer.
template <typename T>
void check_integral_values() {
  using Lim = std::numeric_limits<T>;
  using S = std::make_signed_t<T>;
  constexpr size_t w = sizeof(T);
  const bool shrinks = w > 1;  // one byte never takes a shorter varint
  const auto as_t = [](int64_t v) { return static_cast<T>(static_cast<S>(v)); };
  const std::vector<std::pair<T, bool>> cases = [&] {
    std::vector<std::pair<T, bool>> c = {
        {T{0}, shrinks},
        {T{1}, shrinks},
        {as_t(-1), shrinks},  // the unsigned maximum reads as -1
        {Lim::min(), shrinks && Lim::min() == 0},
        {Lim::max(), shrinks && !Lim::is_signed},
    };
    if (shrinks) {
      const int64_t edge = int64_t{1} << (7 * (w - 1) - 1);
      c.push_back({as_t(edge - 1), true});
      c.push_back({as_t(edge), false});
      c.push_back({as_t(-edge), true});
      c.push_back({as_t(-edge - 1), false});
    }
    return c;
  }();
  for (const auto& [v, want_varint] : cases) {
    EXPECT_EQ(value_round_trip<T>({v}), want_varint)
        << sizeof(T) << "-byte " << (Lim::is_signed ? "signed" : "unsigned")
        << " value " << +v;
  }
}

TEST(WireCodec, IntegralValuesTakeVarintsOnlyWhereShorter) {
  check_integral_values<int8_t>();
  check_integral_values<uint8_t>();
  check_integral_values<int16_t>();
  check_integral_values<uint16_t>();
  check_integral_values<int32_t>();
  check_integral_values<uint32_t>();
  check_integral_values<int64_t>();
  check_integral_values<uint64_t>();
}

TEST(WireCodec, RangeRecordsAreAllVarintOrAllRaw) {
  // One wide value among small ones: the varints are shorter in total,
  // so every value of the range goes as a varint, the wide one in ten
  // bytes.
  EXPECT_TRUE(value_round_trip<int64_t>(
      {0, -3, std::numeric_limits<int64_t>::min(), 5, 6, 7}));
  // Varints no shorter in total (8 + 8 bytes against 16 raw): the whole
  // range stays raw.
  EXPECT_FALSE(value_round_trip<int64_t>(
      {int64_t{1} << 48, -(int64_t{1} << 48) - 1}));
  EXPECT_TRUE(value_round_trip<uint16_t>({1, 2, 65535}));
  EXPECT_FALSE(value_round_trip<uint16_t>({1, 40000}));
}

TEST(WireCodec, FloatingPointValuesStayRaw) {
  EXPECT_FALSE(value_round_trip<double>({0.0}));
  EXPECT_FALSE(value_round_trip<double>({1.0, 2.0, -0.0}));
  EXPECT_FALSE(value_round_trip<float>({0.0f}));
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
  // (0..99), then the int64 value -j as a varint of its zigzag image
  // 2j - 1: one byte for j <= 64, two for j = 65..99.
  constexpr uint64_t kHeadBytes = 1 + 1 + 2 + 1 + 1;
  constexpr uint64_t kValueBytes = 65 * 1 + 35 * 2;
  EXPECT_EQ(some.network_bytes - none.network_bytes,
            kUpdates * kHeadBytes + kValueBytes);
}

}  // namespace
}  // namespace ppm
