// Trace exporters: Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing) and a compact binary dump. Both are deterministic
// functions of the recorded events — fixed-format timestamps, no host
// state — so two runs with identical event streams export byte-identical
// artifacts (asserted by core_trace_test).
#pragma once

#include <string>

#include "util/byte_buffer.hpp"

namespace ppm::trace {

class Trace;

/// Chrome trace-event JSON: `{"traceEvents": [...]}` with one process per
/// node (pid = node id, one thread per core) and a "fabric" process
/// carrying every message as a send -> delivery span (one thread per
/// source node). Phase compute/commit, VP batches, fetch stalls, and
/// messages are complete ("X") spans; the rest are instants.
std::string to_chrome_json(const Trace& trace);

/// Compact binary dump: magic "PPMT", version, node count, track count
/// (one track per node), then per track the label table and raw events. Field-by-field serialization (no struct memcpy),
/// so the layout is stable across platforms.
Bytes to_binary(const Trace& trace);

inline constexpr uint32_t kBinaryMagic = 0x544d5050;  // "PPMT" little-endian
// Bump on any change to the layout or to EventKind's numbering: events
// carry the kind as its raw byte.
inline constexpr uint32_t kBinaryVersion = 3;

}  // namespace ppm::trace
