// Shared configuration for the benchmark harness.
//
// All figure benches run on the same simulated machine model, loosely
// calibrated to the paper's platform (Cray XT4 "Franklin": 4-core 2.3 GHz
// Opteron nodes, SeaStar interconnect):
//   * network: ~6 us end-to-end small-message latency, ~2 GB/s per-node
//     injection bandwidth, per-message software overheads;
//   * intra-node transport (used by MPI ranks on one node): sub-microsecond
//     latency, memcpy-class bandwidth, but still a per-message cost — the
//     effect the paper's SmartMap footnote discusses;
//   * compute: measured host CPU time of the real kernels, scaled by a
//     calibration factor into simulated-core time.
//
// The absolute numbers are not the point (our substrate is a simulator);
// the benches exist to reproduce the *shape* of Figures 1-3 and Table 1.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "cluster/machine.hpp"
#include "core/options.hpp"
#include "sim/engine.hpp"

namespace ppm::bench {

inline constexpr int kCoresPerNode = 4;  // Franklin's quad-core nodes

/// Host-CPU-ns -> simulated-core-ns scale. The host of record is several
/// times faster than a 2.3 GHz Opteron core; 3.0 keeps compute/network
/// ratios in a realistic band.
inline double calibration_factor() {
  if (const char* env = std::getenv("PPM_BENCH_CALIBRATION")) {
    return std::atof(env);
  }
  return 3.0;
}

inline cluster::MachineConfig bench_machine(int nodes,
                                            int cores = kCoresPerNode) {
  cluster::MachineConfig cfg;
  cfg.nodes = nodes;
  cfg.cores_per_node = cores;
  cfg.network = {.latency_ns = 6'000,
                 .bytes_per_ns = 2.0,
                 .send_overhead_ns = 600,
                 .recv_overhead_ns = 600};
  cfg.intranode = {.latency_ns = 500,
                   .bytes_per_ns = 5.0,
                   .send_overhead_ns = 200,
                   .recv_overhead_ns = 200};
  cfg.engine.calibration = sim::CalibrationMode::kMeasured;
  cfg.engine.calibration_factor = calibration_factor();
  return cfg;
}

inline RuntimeOptions bench_runtime_options() {
  RuntimeOptions opts;  // the defaults are the tuned configuration
  // Coarser bundles than the library default: at the figures' problem
  // sizes the walks/reads touch large remote regions, so bigger blocks
  // amortize per-message latency further (ablation_bundling sweeps this).
  opts.read_block_bytes = 16 * 1024;
  // The cost of going through the runtime library on every shared access
  // is measured by the calibrated virtual clock; it is the dominant
  // PPM-side overhead the paper describes ("accesses to the PPM shared
  // variables go through the PPM runtime library, which will bring in
  // some overhead").
  return opts;
}

/// Standard RunResult counters for the PPM side of a bench. tools/bench.sh
/// collects these rows into BENCH_fig.json, so figure benches and
/// ablations report one consistent set.
inline void report_run_counters(benchmark::State& state,
                                const RunResult& r) {
  state.counters["vtime_ms"] = r.duration_s() * 1e3;
  state.counters["duration_ns"] = static_cast<double>(r.duration_ns);
  state.counters["net_msgs"] = static_cast<double>(r.network_messages);
  state.counters["net_bytes"] = static_cast<double>(r.network_bytes);
  state.counters["net_MB"] =
      static_cast<double>(r.network_bytes) / 1048576.0;
  state.counters["bundles"] = static_cast<double>(r.bundles_sent);
  state.counters["fetch_stall_ns"] =
      static_cast<double>(r.fetch_stall_ns);
  state.counters["prefetch_hits"] = static_cast<double>(r.prefetch_hits);
  state.counters["reduction_bytes_saved"] =
      static_cast<double>(r.reduction_bytes_saved);
  state.counters["blocks_migrated"] =
      static_cast<double>(r.blocks_migrated);
  state.counters["migration_KB"] =
      static_cast<double>(r.migration_bytes) / 1024.0;
  state.counters["remote_to_local"] =
      static_cast<double>(r.remote_to_local_conversions);
}

/// Scale factor for problem sizes: PPM_BENCH_SCALE=2 doubles workloads,
/// =0.5 halves them. Lets the harness run on slow hosts.
inline double bench_scale() {
  if (const char* env = std::getenv("PPM_BENCH_SCALE")) {
    return std::atof(env);
  }
  return 1.0;
}

}  // namespace ppm::bench
