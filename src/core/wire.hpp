// Wire protocol of the PPM runtime: message kinds carried over each node's
// service port, the write-record codec used in bundles and the local log,
// and the block-request codec of kGetBlockList.
//
// The runtime is the only consumer of the service port, so these kinds
// cannot collide with mp:: traffic (which uses the per-core rank ports).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/byte_buffer.hpp"
#include "util/error.hpp"

namespace ppm::detail {

/// Runtime message classes (top byte of net::Message::kind). Trace spans
/// name a kind by its number ("k9"), so the numbers stay fixed.
enum class RtMsg : uint8_t {
  // Gather: varint epoch, array, request id, index count, then the
  // owner-local indices, all varints. Answered by one kGetResp.
  kGetIndexed = 2,
  kGetResp = 3,    // response to a fetch: u64 request id, then the elements
  kBundle = 4,     // write bundle fragment for the current global phase
  kToken = 5,      // keyed control message (barriers, node collectives)
  kShutdown = 6,   // node program finished; service loop may exit
  // Locality engine: one migration block changing owners at a global
  // commit. Payload: u32 array id, u64 migration-block index, then the
  // block's raw element bytes. The receiver stages the payload and applies
  // it from its own commit path once its side of the (identical) plan is
  // reached; no reply.
  kMigrateBlock = 8,
  // Block fetches: every block request a requester queued for the same
  // owner while its cores were miss-switching, shipped as one message in
  // the block-request codec below. The owner replies with one kGetResp
  // per item.
  kGetBlockList = 9,
};

inline uint64_t rt_kind(RtMsg m) {
  return static_cast<uint64_t>(m) << 56;
}
inline RtMsg rt_class(uint64_t kind) {
  return static_cast<RtMsg>(kind >> 56);
}

/// kBundle fragments lead with a u64 epoch and a u8 of these flags. A
/// sender's last fragment of an epoch (its "last marker") sets
/// kFragmentLast. A last marker of a commit that carries reduce partials
/// on its markers also sets kFragmentPartials and ends in a trailer:
///
///   partials  the sender's reduce partial blobs, in registration order
///   u32       their byte count
///   u8        partials flags (kPartialsRemoteWrite)
///
/// The sparse commit form carries the same [partials][u8 flags] blob in
/// its census tokens instead.
inline constexpr uint8_t kFragmentLast = 0x01;
inline constexpr uint8_t kFragmentPartials = 0x02;
inline constexpr size_t kPartialsTrailerTailBytes =
    sizeof(uint32_t) + sizeof(uint8_t);
/// Partials flag: the sender shipped a remote write record this epoch
/// into an array that a pending reduce folds, so partials folded before
/// the exchange may miss writes and the commit resolves its reduces on
/// the post-apply allgather instead.
inline constexpr uint8_t kPartialsRemoteWrite = 0x01;

// Get requests (kGetBlockList, kGetIndexed) lead with the requester's
// epoch (its count of committed global phases) as a varint, inside phases
// and out. An owner that has not yet committed the phase the requester
// already finished defers serving until it has, so every read sees the
// snapshot its requester's epoch names. A requester runs at most one
// epoch ahead: its next commit needs the owner's marker (or, above the
// allgather crossover, the owner's census counts).

/// Write operations a VP can perform on a shared element. Values must
/// stay in [0, 8): commit builds per-element masks as `1u << op` in a
/// uint8_t (see apply_staged_entries and check::ElemState::op_mask).
enum class WriteOp : uint8_t {
  kSet = 0,  // last-writer-wins, ordered by (global VP rank, VP-local seq)
  kAdd = 1,  // commutative accumulate
  kMin = 2,
  kMax = 3,
  kMul = 4,  // commutative accumulate (product)
  // User-registered accumulate slots (Env::register_accum_op). The
  // registered function must be commutative and associative for
  // deterministic results; ppm::check enforces single-entry access per
  // element per phase when a slot is registered non-commutative.
  kUser0 = 5,
  kUser1 = 6,
  kUser2 = 7,
};

/// True for every op that combines with the element's prior value
/// (everything except plain kSet).
inline bool is_accum_op(WriteOp op) { return op != WriteOp::kSet; }
/// True for the user-registered accumulate slots.
inline bool is_user_op(WriteOp op) {
  return static_cast<uint8_t>(op) >= static_cast<uint8_t>(WriteOp::kUser0);
}

/// Range-record marker: a write record whose op byte has this bit set
/// covers a contiguous element run instead of a single element. Its index
/// names the first element and its count field the run length (see the
/// record codec below). The whole run carries ONE (vp_rank, seq) pair and
/// commits as a unit at that position, so bulk writes
/// (GlobalShared::set_n/add_n) cost one record head per owner segment
/// instead of one per element.
inline constexpr uint8_t kOpRangeBit = 0x80;

/// Varint-value marker: a write record whose op byte has this bit set
/// carries each of its values as a zigzag varint instead of the element's
/// raw bytes (see the record codec below).
inline constexpr uint8_t kOpVarintBit = 0x40;

inline WriteOp entry_op(uint8_t op) {
  return static_cast<WriteOp>(op & ~(kOpRangeBit | kOpVarintBit));
}
inline bool entry_is_range(uint8_t op) { return (op & kOpRangeBit) != 0; }
inline bool entry_is_varint(uint8_t op) { return (op & kOpVarintBit) != 0; }

/// Write records. Every write the runtime logs or ships (kBundle entries
/// and the local log; set, the built-in accumulates and the user slots
/// alike) is one record of this stateless codec, each field at its
/// information content:
///
///   u8      op       WriteOp, | kOpRangeBit for a range record,
///                    | kOpVarintBit for varint values
///   varint  array    shared-array id
///   varint  index    global element index (a range's first element)
///   varint  vp_rank  writer's global VP rank
///   varint  seq      writer's write sequence
///   varint  count    elements covered            range records only
///   values           count of them (1 for a scalar record): elem_size
///                    raw bytes each, or one varint each under
///                    kOpVarintBit
///
/// Varints are unsigned LEB128: seven value bits per byte, low group
/// first, the high bit set on every byte but the last, so a value below
/// 128 takes one byte and a 64-bit value at most ten. A varint value is
/// the element sign-extended from its width and zigzag-mapped (0, -1, 1,
/// -2, ... to 0, 1, 2, 3, ...), so small magnitudes of either sign stay
/// short. Only 2-, 4- and 8-byte integral elements take varint values,
/// and put_record picks them only when they are shorter than the raw
/// bytes: a record is never longer than its raw form, and floating-point
/// values never change form. A range record is all-varint or all-raw.
/// Records commit in (vp_rank, seq) order.
inline constexpr size_t kMaxVarintBytes = 10;

inline constexpr size_t varint_bytes(uint64_t v) {
  return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7;
}

inline std::byte* put_varint(std::byte* out, uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::byte>(v | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<std::byte>(v);
  return out;
}

/// Decode one varint at [p, end) into *v and return the position after
/// it. Throws ppm::Error on a varint cut off by `end`, one longer than 10
/// bytes, or one whose value does not fit 64 bits.
inline const std::byte* get_varint(const std::byte* p, const std::byte* end,
                                   uint64_t* v) {
  uint64_t value = 0;
  for (unsigned shift = 0;; shift += 7) {
    PPM_CHECK(p != end, "garbled message: truncated varint");
    const auto b = static_cast<uint8_t>(*p++);
    if (shift == 63) {  // the tenth byte holds bit 63 and must end it
      PPM_CHECK(b < 0x80, "garbled message: varint longer than %zu bytes",
                kMaxVarintBytes);
      PPM_CHECK(b <= 1, "garbled message: varint overflows 64 bits");
    }
    value |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (b < 0x80) {
      *v = value;
      return p;
    }
  }
}

/// A write record without its value bytes.
struct RecordHead {
  uint8_t op = 0;  // WriteOp, | kOpRangeBit for a range record
  uint32_t array = 0;
  uint64_t index = 0;
  uint64_t vp_rank = 0;
  uint32_t seq = 0;
  uint32_t count = 1;  // encoded for range records only
};

// op, array, index, vp_rank, seq, count
inline constexpr size_t kMaxRecordHeadBytes = 1 + 5 + 10 + 10 + 5 + 5;

/// Encode `h` at `out` (room for kMaxRecordHeadBytes); returns the bytes
/// written.
inline size_t put_record_head(std::byte* out, const RecordHead& h) {
  std::byte* p = out;
  *p++ = static_cast<std::byte>(h.op);
  p = put_varint(p, h.array);
  p = put_varint(p, h.index);
  p = put_varint(p, h.vp_rank);
  p = put_varint(p, h.seq);
  if (entry_is_range(h.op)) p = put_varint(p, h.count);
  return static_cast<size_t>(p - out);
}

/// True when elements of `elem_size` bytes (integral when `integral`) may
/// carry varint values: 2-, 4- and 8-byte integers.
inline bool varint_values_allowed(bool integral, uint32_t elem_size) {
  return integral &&
         (elem_size == 2 || elem_size == 4 || elem_size == 8);
}

/// The zigzag image of the integer element at `p` (elem_size 2, 4 or 8),
/// sign-extended from its width.
inline uint64_t load_zigzag(const std::byte* p, uint32_t elem_size) {
  int64_t v = 0;
  if (elem_size == 2) {
    int16_t x = 0;
    std::memcpy(&x, p, sizeof x);
    v = x;
  } else if (elem_size == 4) {
    int32_t x = 0;
    std::memcpy(&x, p, sizeof x);
    v = x;
  } else {
    std::memcpy(&v, p, sizeof v);
  }
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

/// Append one record: its head, then the h.count values of `elem_size`
/// bytes each at `values`. Under varint_values_allowed(integral,
/// elem_size) the values go as varints, with kOpVarintBit set, when their
/// varints take fewer bytes than the raw values.
inline void put_record(ByteWriter& w, RecordHead h, const std::byte* values,
                       uint32_t elem_size, bool integral) {
  const size_t raw_bytes = static_cast<size_t>(h.count) * elem_size;
  const auto zigzag_at = [&](uint32_t j) {
    return load_zigzag(values + static_cast<size_t>(j) * elem_size, elem_size);
  };
  size_t value_bytes = raw_bytes;
  if (varint_values_allowed(integral, elem_size)) {
    size_t packed = 0;
    for (uint32_t j = 0; j < h.count; ++j) packed += varint_bytes(zigzag_at(j));
    if (packed < raw_bytes) {
      value_bytes = packed;
      h.op |= kOpVarintBit;
    }
  }
  std::byte head[kMaxRecordHeadBytes];
  const size_t n = put_record_head(head, h);
  // One growth operation per record: this sits on the hot path of every
  // shared write.
  std::byte* out = w.extend(n + value_bytes);
  std::memcpy(out, head, n);
  out += n;
  if (!entry_is_varint(h.op)) {
    std::memcpy(out, values, raw_bytes);
    return;
  }
  for (uint32_t j = 0; j < h.count; ++j) out = put_varint(out, zigzag_at(j));
}

/// Decode one varint value at [p, end) into the `elem_size`-byte integer
/// at `out` (elem_size 2, 4 or 8) and return the position after it.
/// Throws ppm::Error on a garbled varint (see get_varint) or a value
/// outside the element's width.
inline const std::byte* get_varint_value(const std::byte* p,
                                         const std::byte* end,
                                         uint32_t elem_size, std::byte* out) {
  uint64_t z = 0;
  p = get_varint(p, end, &z);
  // The zigzag image of a w-byte signed value lies below 2^(8w).
  PPM_CHECK(elem_size == 8 || (z >> (8 * elem_size)) == 0,
            "garbled write record: value varint %llu does not fit a %u-byte "
            "element",
            static_cast<unsigned long long>(z), elem_size);
  const int64_t v =
      static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
  if (elem_size == 2) {
    const auto x = static_cast<int16_t>(v);
    std::memcpy(out, &x, sizeof x);
  } else if (elem_size == 4) {
    const auto x = static_cast<int32_t>(v);
    std::memcpy(out, &x, sizeof x);
  } else {
    std::memcpy(out, &v, sizeof v);
  }
  return p;
}

/// Decode one record head at [p, end) into *h and return the position of
/// its values. Throws ppm::Error on a garbled varint (see get_varint), an
/// op outside [0, 8), a field wider than its type or an empty range. The
/// caller checks the array and the values: their form (kOpVarintBit)
/// against the array's element type, then the values themselves
/// (get_varint_value, or the raw bytes' length).
inline const std::byte* get_record_head(const std::byte* p,
                                        const std::byte* end, RecordHead* h) {
  PPM_CHECK(p != end, "garbled write record: truncated op");
  h->op = static_cast<uint8_t>(*p++);
  PPM_CHECK(static_cast<uint8_t>(entry_op(h->op)) < 8,
            "garbled write record: invalid op %u",
            static_cast<unsigned>(entry_op(h->op)));
  uint64_t v = 0;
  const auto get_u32 = [&](uint32_t* out, const char* field) {
    p = get_varint(p, end, &v);
    PPM_CHECK(v <= UINT32_MAX, "garbled write record: %s %llu too wide",
              field, static_cast<unsigned long long>(v));
    *out = static_cast<uint32_t>(v);
  };
  get_u32(&h->array, "array id");
  p = get_varint(p, end, &h->index);
  p = get_varint(p, end, &h->vp_rank);
  get_u32(&h->seq, "seq");
  h->count = 1;
  if (entry_is_range(h->op)) {
    get_u32(&h->count, "count");
    PPM_CHECK(h->count > 0, "garbled write record: empty range");
  }
  return p;
}

/// Append one varint to `w`.
inline void put_varint(ByteWriter& w, uint64_t v) {
  std::byte buf[kMaxVarintBytes];
  w.put_raw(buf, static_cast<size_t>(put_varint(buf, v) - buf));
}

/// Block requests. A kGetBlockList payload is the requester's epoch, the
/// item count, then each item, all varints:
///
///   varint  array << 1 | prefetch   shared-array id; bit 0 marks a
///                                   lookahead item
///   varint  first                   owner-local first element
///   varint  count                   elements
///   varint  req_id                  echoed by the item's kGetResp
///
/// A fetch of one block is a one-item list. The owner drops a stale list
/// whose items are all lookahead (their requester abandoned them at its
/// commit) and rejects any other stale request.
struct BlockRequest {
  uint32_t array = 0;
  uint64_t first = 0;  // owner-local
  uint64_t count = 0;
  uint64_t req_id = 0;
  bool prefetch = false;
};

/// The kGetBlockList payload asking for `items` at the requester's
/// `epoch`.
inline Bytes encode_block_requests(uint64_t epoch,
                                   std::span<const BlockRequest> items) {
  ByteWriter w;
  put_varint(w, epoch);
  put_varint(w, items.size());
  for (const BlockRequest& r : items) {
    put_varint(w, uint64_t{r.array} << 1 | (r.prefetch ? 1 : 0));
    put_varint(w, r.first);
    put_varint(w, r.count);
    put_varint(w, r.req_id);
  }
  return std::move(w).take();
}

/// Decode the items of a kGetBlockList payload from [p, end), the bytes
/// after its epoch. Throws ppm::Error on a garbled varint (see
/// get_varint), an array id wider than 32 bits or bytes after the last
/// item. The owner checks each item's array and range against its
/// storage.
inline std::vector<BlockRequest> decode_block_requests(const std::byte* p,
                                                       const std::byte* end) {
  uint64_t n = 0;
  p = get_varint(p, end, &n);
  std::vector<BlockRequest> items;
  // An item takes at least four bytes, so a garbled count cannot size the
  // vector past the payload.
  items.reserve(std::min<uint64_t>(n, static_cast<uint64_t>(end - p) / 4));
  for (uint64_t k = 0; k < n; ++k) {
    BlockRequest& r = items.emplace_back();
    uint64_t head = 0;
    p = get_varint(p, end, &head);
    PPM_CHECK(head >> 1 <= UINT32_MAX,
              "garbled block request: array id %llu too wide",
              static_cast<unsigned long long>(head >> 1));
    r.array = static_cast<uint32_t>(head >> 1);
    r.prefetch = (head & 1) != 0;
    p = get_varint(p, end, &r.first);
    p = get_varint(p, end, &r.count);
    p = get_varint(p, end, &r.req_id);
  }
  PPM_CHECK(p == end,
            "garbled block request list: %zu bytes after the last item",
            static_cast<size_t>(end - p));
  return items;
}

}  // namespace ppm::detail
