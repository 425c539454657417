// Post-run analysis over a recorded Trace (docs/OBSERVABILITY.md):
// per-phase critical path, compute-imbalance histogram, remote-hot blocks,
// and bundling/overlap efficiency ratios. Pure function of the events —
// hand-built event sequences are analyzable in unit tests without a run.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace ppm::trace {

class Trace;

/// One global phase as the cluster saw it, reassembled by matching the
/// per-node kPhaseBegin/ComputeDone/Committed triples by phase index.
struct PhaseCritical {
  uint64_t phase_index = 0;
  bool global = false;
  std::string label;       // app label via Env::phase_label, may be empty
  int nodes_seen = 0;      // nodes that recorded this phase
  int critical_node = -1;  // last node to finish compute (bound the barrier)
  int64_t start_ns = 0;          // earliest phase entry across nodes
  int64_t committed_ns = 0;      // latest commit completion across nodes
  int64_t compute_max_ns = 0;    // critical node's compute time
  int64_t compute_min_ns = 0;    // fastest node's compute time
  int64_t commit_max_ns = 0;     // slowest node's commit time
  uint64_t stall_ns = 0;         // fetch-stall time inside it, all nodes

  /// Compute imbalance (max-min)/max in [0, 1]; 0 when perfectly balanced.
  double imbalance() const;
};

/// A remote block ranked by how many fetches requested it.
struct HotBlock {
  uint32_t array = 0;
  uint64_t owner = 0;
  uint64_t first_elem = 0;  // owner-local index of the block's first element
  uint64_t fetches = 0;
};

/// All phases sharing one app label, rolled up — the unit at which a
/// hot-path optimization is judged: "where does spmv spend its critical
/// path, compute or fetch stall?" is a per-label question, not a
/// per-phase-instance one.
struct LabelRollup {
  std::string label;        // empty label rolls up as "-"
  uint64_t phases = 0;      // phase instances carrying this label
  int64_t compute_ns = 0;   // sum of critical-node compute time
  int64_t commit_ns = 0;    // sum of slowest-node commit time
  uint64_t stall_ns = 0;    // sum of fetch-stall time, all nodes

  /// Fraction of this label's critical compute spent parked on fetches.
  double stall_share() const;
};

struct Summary {
  uint64_t events = 0;   // events recorded across all tracks
  uint64_t dropped = 0;  // events lost to ring wrap across all tracks

  std::vector<PhaseCritical> phases;

  /// Per-label attribution, ordered by first appearance in the run.
  std::vector<LabelRollup> labels;

  /// Histogram of per-phase compute imbalance: bucket i counts phases with
  /// imbalance in [i/8, (i+1)/8) (last bucket closed at 1).
  std::array<uint64_t, 8> imbalance_hist{};

  /// Top remote-hot blocks by fetch count (at most kTopHotBlocks,
  /// deterministic order: count desc, then array/owner/element asc).
  static constexpr size_t kTopHotBlocks = 8;
  std::vector<HotBlock> hot_blocks;

  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t fetches = 0;
  uint64_t fetch_latency_ns = 0;  // issue->response, matched by request id
  /// Of fetch_latency_ns, the part some VP waited out: per counted fetch,
  /// its earliest parked waiter's stall start -> response.
  uint64_t fetch_exposed_ns = 0;
  uint64_t stall_ns = 0;          // VP time actually parked on fetches
  uint64_t messages = 0;          // fabric sends recorded
  uint64_t fault_delay_ns = 0;    // fault-injected extra delay, summed

  /// Block-cache effectiveness: hits / (hits + misses). 1 when every read
  /// after the first of a block was served locally.
  double bundling_efficiency() const;
  /// Fraction of in-flight fetch latency hidden behind computation:
  /// 1 - exposed/latency, in [0, 1]. 1 means fetches never parked a VP.
  /// Waiters parked on one fetch expose its latency once, not per VP.
  double overlap_efficiency() const;

  /// Human-readable report, printed by `ppm_cli --profile` under tracing.
  std::string to_string() const;
};

Summary analyze(const Trace& trace);

}  // namespace ppm::trace
