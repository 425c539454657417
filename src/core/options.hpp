// Configuration of the PPM runtime and the ppm::run entry point.
#pragma once

#include <cstdint>

#include <string>
#include <vector>

#include "check/report.hpp"
#include "cluster/machine.hpp"
#include "trace/analyze.hpp"

namespace ppm {

/// VP-to-core scheduling policy ("conversion of virtual processors into
/// loops", §3.4 of the paper).
enum class SchedulePolicy : uint8_t {
  kStatic,   // contiguous K/C chunks per core
  kDynamic,  // cores grab chunks from a shared counter (load balancing)
};

/// Tunables of the runtime optimizations the paper describes in §3.3.
/// The ablation benches flip these switches.
struct RuntimeOptions {
  /// Bundle fine-grained remote reads: fetch cache blocks instead of single
  /// elements and combine concurrent requests for the same block.
  bool bundle_reads = true;
  /// Bytes per read cache block (rounded down to a whole number of
  /// elements, minimum one element).
  uint32_t read_block_bytes = 2048;

  /// Stream write bundles to their destination while the phase is still
  /// computing (communication/computation overlap). When false all write
  /// traffic is sent at the end-of-phase commit.
  bool eager_flush = true;
  /// Flush a destination's write buffer once it exceeds this many bytes.
  uint32_t flush_threshold_bytes = 64 * 1024;

  /// Overlap remote-read latency with computation ("miss-switching"): when
  /// a VP's read misses the block cache, its core runs other ready VPs of
  /// the phase while the fetch is in flight, and the blocked VP resumes
  /// when the response arrives. Commit results are unaffected — writes
  /// apply in (global VP rank, per-VP seq) order regardless of execution
  /// order — so this is purely a latency-hiding knob for the ablations.
  bool overlap_reads = true;
  /// Max VP bodies stacked on one core fiber by miss-switching (each level
  /// nests a body frame on the fiber's stack).
  uint32_t overlap_max_depth = 4;

  /// Automatic sequential lookahead: when a demand miss extends a detected
  /// forward block stream, fetch up to this many subsequent blocks of the
  /// same owner ahead of use. 0 disables the automatic path; the explicit
  /// prefetch() API works regardless.
  uint32_t prefetch_lookahead_blocks = 1;

  /// Locality engine: run the migration planner automatically at every
  /// global-phase commit for owner-mapped (Distribution::kAdaptive)
  /// arrays. Off, kAdaptive arrays keep their initial block-aligned layout
  /// unless a program requests a one-shot planning round through
  /// rebalance(). Either way the plan is computed identically on every
  /// node from allgathered read-epoch counters (a block moves only to a
  /// node that read it in strictly more epochs than its owner did), so no
  /// extra coordination rounds are needed and committed logical contents
  /// are unaffected.
  bool adaptive_distribution = false;
  /// Cap on blocks moved per planning round across all arrays (bounds the
  /// commit-time migration burst).
  uint32_t migrate_max_blocks_per_phase = 64;

  SchedulePolicy schedule = SchedulePolicy::kDynamic;
  /// VPs per scheduling chunk; 0 chooses max(1, K / (cores * 8)).
  uint64_t chunk_size = 0;

  /// Record a per-phase timing/traffic profile on every node (see
  /// NodeRuntime::phase_profiles). Small constant overhead per phase.
  bool profile_phases = false;

  /// Enable the ppm::trace event recorder (docs/OBSERVABILITY.md). Each
  /// node then records phase, scheduling, read/write-engine, migration
  /// and message-send events into its own ring buffer (one track per
  /// node); exporters turn the rings into Perfetto-loadable JSON and the
  /// analyzer into RunResult::trace_summary. Timestamps are virtual, so
  /// under CalibrationMode::kModeledOnly a fixed config traces
  /// bit-identically.
  /// Default off: the hooks reduce to a never-taken null-pointer branch
  /// (same trick as the validator), and committed results are unaffected
  /// either way.
  bool trace = false;
  /// Ring capacity per node track, in events. On wrap the OLDEST events
  /// are overwritten and counted (trace::Recorder::dropped), keeping
  /// memory bounded while always retaining the most recent window.
  uint32_t trace_buffer_events = 1 << 16;

  /// Enable the ppm::check phase-semantics sanitizer (docs/validator.md).
  /// Each node then records per-phase access metadata, scans every commit
  /// batch for write-write set() races and non-commuting op mixes, and
  /// exchanges a lockstep fingerprint at every global commit. Findings
  /// land in RunResult::check_report. Default off: the hooks reduce to a
  /// never-taken null-pointer branch, so the hot path is unaffected.
  bool validate_phases = false;
  /// With validate_phases: throw ppm::Error at the commit point that
  /// detects the first error-severity violation instead of recording it
  /// and continuing. Warnings never throw.
  bool validate_fail_fast = false;
};

struct PpmConfig {
  cluster::MachineConfig machine{};
  RuntimeOptions runtime{};
};

/// Aggregate results of one ppm::run, for benches and tests.
struct RunResult {
  /// Virtual time from program start to the last node finishing.
  int64_t duration_ns = 0;
  uint64_t network_messages = 0;
  uint64_t network_bytes = 0;
  uint64_t intranode_messages = 0;
  uint64_t intranode_bytes = 0;
  /// Runtime counters summed over nodes, except the two global-commit
  /// counts, which are per runtime: global_phases, and payload_commits —
  /// the commits that ran a payload allgather after the apply: migration
  /// planning rounds, and commits whose reduces could not ride the
  /// write-bundle exchange because some node wrote a reduced array
  /// remotely (the others, pending reduces included, end at the
  /// exchange).
  uint64_t global_phases = 0;
  uint64_t payload_commits = 0;
  uint64_t node_phases = 0;
  uint64_t remote_blocks_fetched = 0;
  uint64_t remote_reads_served_from_cache = 0;
  /// Reads that entered the runtime's cold remote path — i.e. missed both
  /// the handle-inline local and published-cached-block fast paths. A
  /// fully cached phase keeps this at zero.
  uint64_t slow_path_reads = 0;
  uint64_t write_entries = 0;
  /// kBundle fragments sent, eager flushes and last markers alike. Below
  /// the allgather crossover every global commit adds p−1 markers per
  /// node; above it only one per peer written that epoch, so a commit
  /// without remote writes adds none.
  uint64_t bundles_sent = 0;
  /// Virtual time VPs spent parked on remote fetches (summed over nodes);
  /// the overlap engine exists to shrink this.
  uint64_t fetch_stall_ns = 0;
  /// Lookahead blocks requested (explicit prefetch() + automatic stream
  /// detection) and how many were demanded before going unused.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  /// Always 0: every remote write ships as its own record. Kept only
  /// because the repository benchmark's runner reads it (its
  /// core.write.combined metric).
  uint64_t entries_combined = 0;
  /// Always 0. Kept only because the repository benchmark's runner reads
  /// it (its core.write.accums metric).
  uint64_t accums_executed = 0;
  /// Wire bytes avoided by commit reductions: elem_size * (nodes - 1)
  /// per reduce() per node (the root-gather messages a standalone
  /// allreduce would have sent; reduce partials ride the commit's own
  /// exchange, or its payload allgather, instead).
  uint64_t reduction_bytes_saved = 0;
  /// Locality engine: migration blocks that changed owners (counted at the
  /// sending side) and the element bytes they carried over the wire.
  uint64_t blocks_migrated = 0;
  uint64_t migration_bytes = 0;
  /// Read-epochs the planner observed going remote that its accepted
  /// moves turned local: per moved block, the epochs in which the gaining
  /// node read it since the last planning round (each counted once, on
  /// the node that gains the block).
  uint64_t remote_to_local_conversions = 0;
  /// Findings of the phase-semantics sanitizer, merged over all nodes.
  /// Populated only when RuntimeOptions::validate_phases was set.
  check::Report check_report;

  /// Per-run rollup of every NodeRuntime::Counters field: cluster-wide sum
  /// plus the per-node extremes (and which nodes they sit on), so load
  /// imbalance is visible without hand-summing node 0..N or parsing a
  /// trace. One row per counter, in declaration order.
  struct CounterRollup {
    std::string name;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    int min_node = 0;
    int max_node = 0;
  };
  std::vector<CounterRollup> counter_rollup;

  /// Critical-path / imbalance / efficiency analysis of the recorded
  /// events. Populated only when RuntimeOptions::trace was set
  /// (trace_summary.events is 0 otherwise).
  trace::Summary trace_summary;

  double duration_s() const { return static_cast<double>(duration_ns) * 1e-9; }
};

}  // namespace ppm
