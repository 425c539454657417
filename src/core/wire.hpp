// Wire protocol of the PPM runtime: message kinds carried over each node's
// service port, and the serialized write-entry format used in bundles.
//
// The runtime is the only consumer of the service port, so these kinds
// cannot collide with mp:: traffic (which uses the per-core rank ports).
#pragma once

#include <cstdint>

#include "util/byte_buffer.hpp"

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
  // Owner-side accumulate fragment, range form: contiguous accumulate runs
  // (accumulate_n) for one destination. Payload: u64 epoch, then repeated
  // records of u32 array, u8 op, u64 first (global index), u32 count,
  // count * elem_size value bytes. Commutative ops carry no (vp_rank, seq)
  // — the owner applies them after the ordered entry batch of the same
  // commit, grouped by source node ascending — which is what makes each
  // record 12 bytes smaller than the kBundle range entry it replaces.
  // Flushed before the sender's final kBundle last-marker, so the
  // per-(src, dst, port) FIFO floor guarantees arrival before the commit
  // that consumes it; no reply.
  kAccumBlock = 10,
  // Owner-side accumulate fragment, scalar form: individual accumulate(i)
  // items. Payload: u64 epoch, u32 item count, then per item u32 array,
  // u8 op, u64 index (global), elem_size value bytes — 12 bytes smaller
  // per item than the kBundle scalar entry (vp_rank + seq dropped). Same
  // ordering and flush contract as kAccumBlock.
  kAccumList = 11,
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

/// Range-entry marker: a write entry whose op byte has this bit set covers
/// a contiguous element run instead of a single element. The header's
/// index names the first element; a u32 element count follows the header,
/// then count * elem_size value bytes. The whole run carries ONE
/// (vp_rank, seq) pair and commits as a unit at that position, so bulk
/// writes (GlobalShared::set_n/add_n) cost one header per owner segment
/// instead of one per element.
inline constexpr uint8_t kOpRangeBit = 0x80;

inline WriteOp entry_op(uint8_t op) {
  return static_cast<WriteOp>(op & ~kOpRangeBit);
}
inline bool entry_is_range(uint8_t op) { return (op & kOpRangeBit) != 0; }

/// Serialized write-entry header; followed by elem_size value bytes.
struct WireEntryHeader {
  uint32_t array_id;
  uint8_t op;
  uint64_t index;
  uint64_t vp_rank;
  uint32_t seq;  // per-VP write sequence (program order within the VP)
};

/// Serialized entry header size (fields written individually — the struct
/// itself has padding and is never memcpy'd as a whole).
inline constexpr size_t kEntryHeaderBytes =
    sizeof(uint32_t) + sizeof(uint8_t) + sizeof(uint64_t) +
    sizeof(uint64_t) + sizeof(uint32_t);

inline void put_entry(ByteWriter& w, const WireEntryHeader& h,
                      const std::byte* value, uint32_t elem_size) {
  // One growth operation per entry: this sits on the hot path of every
  // shared write.
  std::byte* out = w.extend(kEntryHeaderBytes + elem_size);
  std::memcpy(out, &h.array_id, sizeof(h.array_id));
  out += sizeof(h.array_id);
  std::memcpy(out, &h.op, sizeof(h.op));
  out += sizeof(h.op);
  std::memcpy(out, &h.index, sizeof(h.index));
  out += sizeof(h.index);
  std::memcpy(out, &h.vp_rank, sizeof(h.vp_rank));
  out += sizeof(h.vp_rank);
  std::memcpy(out, &h.seq, sizeof(h.seq));
  out += sizeof(h.seq);
  std::memcpy(out, value, elem_size);
}

/// Append a range entry (kOpRangeBit must be set in h.op): header, u32
/// element count, then the packed element values.
inline void put_range_entry(ByteWriter& w, const WireEntryHeader& h,
                            const std::byte* values, uint32_t count,
                            uint32_t elem_size) {
  std::byte* out = w.extend(kEntryHeaderBytes + sizeof(uint32_t) +
                            static_cast<size_t>(count) * elem_size);
  std::memcpy(out, &h.array_id, sizeof(h.array_id));
  out += sizeof(h.array_id);
  std::memcpy(out, &h.op, sizeof(h.op));
  out += sizeof(h.op);
  std::memcpy(out, &h.index, sizeof(h.index));
  out += sizeof(h.index);
  std::memcpy(out, &h.vp_rank, sizeof(h.vp_rank));
  out += sizeof(h.vp_rank);
  std::memcpy(out, &h.seq, sizeof(h.seq));
  out += sizeof(h.seq);
  std::memcpy(out, &count, sizeof(count));
  out += sizeof(count);
  std::memcpy(out, values, static_cast<size_t>(count) * elem_size);
}

}  // namespace ppm::detail
