// Wire protocol of the PPM runtime: message kinds carried over each node's
// service port, and the write-record codec used in bundles and the local
// log.
//
// The runtime is the only consumer of the service port, so these kinds
// cannot collide with mp:: traffic (which uses the per-core rank ports).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "util/byte_buffer.hpp"
#include "util/error.hpp"

namespace ppm::detail {

/// Runtime message classes (top byte of net::Message::kind).
enum class RtMsg : uint8_t {
  kGetBlock = 1,   // fetch a contiguous element range of a global array
  kGetIndexed = 2, // fetch an explicit index list (gather)
  kGetResp = 3,    // response to either fetch
  kBundle = 4,     // write bundle fragment for the current global phase
  kToken = 5,      // keyed control message (barriers, node collectives)
  kShutdown = 6,   // node program finished; service loop may exit
  // Lookahead fetch: same payload and reply as kGetBlock, but an owner
  // that already committed past the request's epoch drops it silently (the
  // requester abandoned the slot at its own commit) instead of treating it
  // as a protocol error.
  kPrefetchBlock = 7,
  // Locality engine: one migration block changing owners at a global
  // commit. Payload: u32 array id, u64 migration-block index, then the
  // block's raw element bytes. The receiver stages the payload and applies
  // it from its own commit path once its side of the (identical) plan is
  // reached; no reply.
  kMigrateBlock = 8,
  // Coalesced block-fetch list: every block request a requester queued for
  // the same owner while its cores were miss-switching, shipped as one
  // message. Payload: u64 epoch, u32 item count, then per item u32 array,
  // u64 first (owner-local), u64 count, u64 req_id, u8 prefetch-flag. The
  // owner replies with one kGetResp per item (requester-side handling is
  // identical to per-block fetches). Only sent with >= 2 items — a
  // singleton stays a plain kGetBlock/kPrefetchBlock, so list requests are
  // strictly smaller on the wire than the messages they replace. A stale
  // epoch is legal only when every item is a prefetch (mirrors
  // kPrefetchBlock's drop rule).
  kGetBlockList = 9,
};

inline uint64_t rt_kind(RtMsg m) {
  return static_cast<uint64_t>(m) << 56;
}
inline RtMsg rt_class(uint64_t kind) {
  return static_cast<RtMsg>(kind >> 56);
}

// Get requests carry the requester's epoch (its count of committed global
// phases), inside phases and out. An owner that has not yet committed the
// phase the requester already finished defers serving until it has, so
// every read sees the snapshot its requester's epoch names. A requester
// runs at most one epoch ahead: its next commit needs the owner's marker
// (or, above the allgather crossover, the owner's census counts).

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

inline WriteOp entry_op(uint8_t op) {
  return static_cast<WriteOp>(op & ~kOpRangeBit);
}
inline bool entry_is_range(uint8_t op) { return (op & kOpRangeBit) != 0; }

/// Write records. Every write the runtime logs or ships (kBundle entries
/// and the local log; set, the built-in accumulates and the user slots
/// alike) is one record of this stateless codec, each field at its
/// information content:
///
///   u8      op       WriteOp, | kOpRangeBit for a range record
///   varint  array    shared-array id
///   varint  index    global element index (a range's first element)
///   varint  vp_rank  writer's global VP rank
///   varint  seq      writer's write sequence
///   varint  count    elements covered            range records only
///   count * elem_size value bytes (count is 1 for a scalar record)
///
/// Varints are unsigned LEB128: seven value bits per byte, low group
/// first, the high bit set on every byte but the last, so a value below
/// 128 takes one byte and a 64-bit value at most ten. Records commit in
/// (vp_rank, seq) order.
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
    PPM_CHECK(p != end, "garbled write record: truncated varint");
    const auto b = static_cast<uint8_t>(*p++);
    if (shift == 63) {  // the tenth byte holds bit 63 and must end it
      PPM_CHECK(b < 0x80, "garbled write record: varint longer than %zu "
                "bytes", kMaxVarintBytes);
      PPM_CHECK(b <= 1, "garbled write record: varint overflows 64 bits");
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

/// Append one record, head then `value_bytes` of values.
inline void put_record(ByteWriter& w, const RecordHead& h,
                       const std::byte* values, size_t value_bytes) {
  std::byte head[kMaxRecordHeadBytes];
  const size_t n = put_record_head(head, h);
  // One growth operation per record: this sits on the hot path of every
  // shared write.
  std::byte* out = w.extend(n + value_bytes);
  std::memcpy(out, head, n);
  std::memcpy(out + n, values, value_bytes);
}

/// Decode one record head at [p, end) into *h and return the position of
/// its value bytes. Throws ppm::Error on a garbled varint (see
/// get_varint), an op outside [0, 8), a field wider than its type or an
/// empty range. The caller checks the array and the value bytes.
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

}  // namespace ppm::detail
