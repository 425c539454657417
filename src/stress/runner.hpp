// Config-matrix differential runner: execute one generated program under
// many sampled runtime configurations and check that every one of them
// commits bit-identical state — against each other (global arrays) and
// against the golden interpreter (everything, per machine shape) — with
// ppm::check in fail-fast mode wherever it is enabled. Any ppm::Error
// escaping a run (validator, wire protocol, runtime assertion) is a red
// verdict too, attributed to the config that threw.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ppm.hpp"
#include "stress/golden.hpp"
#include "stress/program.hpp"

namespace ppm::stress {

struct StressConfig {
  cluster::MachineConfig machine;
  RuntimeOptions runtime;
  std::string name;  // human-readable knob summary for reports
};

/// Deterministic config matrix for one program seed. configs[0] is always
/// the single-node/single-core static reference (its global snapshot is
/// the cross-config comparison anchor); the rest sample node/core counts,
/// both schedules, the bundling/flush/overlap/lookahead/adaptive knobs,
/// and — on some multi-node configs — fabric fault injection. Config i
/// depends only on draws before it, so any count >= i+1 reproduces
/// config i.
std::vector<StressConfig> sample_configs(uint64_t seed, int count);

/// The committed state a config run ends with, in golden shape: logical
/// global-array contents plus per-node node-array instances. Collected on
/// node 0 via Env::allgather_array (node arrays: pack_owned_elems +
/// allgather), so it is layout-free (identical no matter where blocks
/// migrated to).
using Snapshot = GoldenState;

/// Optional observability side-channel of run_under_config. Set `trace`
/// before the call to run under ppm::trace; afterwards `result` holds the
/// run's statistics (counter rollup, trace summary) and `trace_json` the
/// Chrome trace-event export. On a throwing run the trace captured up to
/// the failure point is still exported — that is the whole point of
/// --trace-on-failure repros.
struct RunArtifacts {
  bool trace = false;        // in: record a ppm::trace for this run
  RunResult result;          // out: statistics (invalid if the run threw)
  std::string trace_json;    // out: Chrome JSON (only when trace was set)
};

/// Execute the program under one config. Throws ppm::Error on any runtime
/// or validator failure.
Snapshot run_under_config(const ProgramSpec& spec, const StressConfig& cfg,
                          RunArtifacts* artifacts = nullptr);

/// Counters accumulated across every config run of a differential check,
/// reported by ppm_stress --json.
struct RunTotals {
  uint64_t runs = 0;
  uint64_t network_messages = 0;
  uint64_t network_bytes = 0;
  uint64_t blocks_fetched = 0;
  uint64_t reads_from_cache = 0;
  uint64_t fetch_stall_ns = 0;
  uint64_t blocks_migrated = 0;

  void add(const RunResult& r);
};

struct Verdict {
  bool ok = true;
  size_t config_index = 0;
  std::string config_name;
  std::string detail;  // first mismatch, or the escaped error's message
};

Verdict run_differential(const ProgramSpec& spec,
                         const std::vector<StressConfig>& configs,
                         RunTotals* totals = nullptr);

/// Greedy deterministic shrinker: starting from a failing (program,
/// config) pair, repeatedly drop phases and ops, clear rebalance hints,
/// and lower K / the split mode / the failing config's node count, keeping
/// each change only if the reduced pair still fails (checked against the
/// reference config plus the failing one). Bounded by a fixed run budget.
struct ShrinkResult {
  ProgramSpec spec;
  std::vector<StressConfig> configs;  // reference + (possibly reduced) failing
  int runs = 0;                       // differential runs spent shrinking
};

ShrinkResult shrink(const ProgramSpec& spec,
                    const std::vector<StressConfig>& configs,
                    size_t failing_config);

}  // namespace ppm::stress
