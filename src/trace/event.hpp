// Event vocabulary of ppm::trace (docs/OBSERVABILITY.md).
//
// One fixed-size POD per recorded occurrence. Every kind reuses the same
// four operand words (a, b, c, aux) with kind-specific meaning — the table
// in docs/OBSERVABILITY.md is the authoritative schema; the short comments
// here mirror it. Timestamps are *virtual* nanoseconds of the simulation
// engine, so under CalibrationMode::kModeledOnly a fixed seed/config
// produces a bit-identical event stream.
#pragma once

#include <cstdint>

namespace ppm::trace {

enum class EventKind : uint8_t {
  // Phase engine (per node). a = phase_index.
  kPhaseBegin = 0,    // b = k_local, c = interned label id (0 = none),
                      // flags bit0 = global phase
  kPhaseComputeDone,  // all VPs of the phase finished, commit starts
  kPhaseCommitted,    // commit protocol complete

  // VP scheduling. Span: c = start time, t_ns = end time.
  kVpBatch,  // a = first VP (node rank), b = end (exclusive),
             // aux = VPs actually executed by this batch,
             // flags bit0 = nested under a blocked VP (miss-switching)

  // Remote-read engine. a = array id, b = the block's first owner-local
  // element, aux = its owner node.
  kCacheHit,     // flags bit0 = served by waiting on an in-flight fetch
  kCacheMiss,    // demand miss; a fetch follows
  kFetchIssued,  // c = request id, flags bit0 = prefetch (lookahead)
  kFetchDone,    // response arrived; c = request id,
                 // flags bit0 = abandoned (phase committed first);
                 // element and indexed gets: a = b = aux = 0
  kFetchStall,   // span: c = stall start, t_ns = wake; a = request id
  kPrefetchHit,  // first demand touch of a prefetched block

  // Write engine.
  kBundleFlush,  // a = destination node, b = payload bytes,
                 // flags bit0 = phase-final (last-marker) fragment

  // Remote reduction.
  kCommitReduce, // partials folded for this commit's reductions:
                 // a = reductions, b = partial-blob bytes; flags bit0 =
                 // folded after the apply for the payload allgather
                 // (clear: folded before the markers, riding them)

  // Locality engine.
  kMigrationPlan,  // a = arrays planned, b = moves accepted, c = plan hash
  kMigrationMove,  // outbound block: a = array, b = block,
                   // c = (from << 32) | to

  // Fabric (recorded on the track of the node that resolves delivery:
  // the destination for inter-node messages, the source for intra-node
  // ones). Span: t_ns = send time, c = delivery time.
  kMsgSend,  // a = src<<48 | sport<<32 | dst<<16 | dport,
             // b = (top kind byte << 56) | payload bytes,
             // aux = fault-injected extra delay ns, flags bit0 = intra-node
};

/// Stable short name, used by the exporters and the analyzer printout.
const char* kind_name(EventKind kind);

struct Event {
  int64_t t_ns = 0;  // virtual time (span kinds: the END of the span)
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint32_t aux = 0;
  uint16_t core = 0;  // recording core (kMsgSend: source node)
  EventKind kind{};
  uint8_t flags = 0;
};

inline constexpr uint8_t kFlagBit0 = 1;

}  // namespace ppm::trace
