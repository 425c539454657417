// ppm::model — compositional performance model and what-if extrapolation
// (docs/OBSERVABILITY.md).
//
// The paper's headline figures are drawn at up to 9660 Franklin nodes —
// far beyond what the simulator can execute. This library closes the gap
// the Extra-P way: fit analytic cost terms from small traced runs, then
// evaluate the composed model at node counts never simulated.
//
// Two fitting layers:
//
//   1. *Counter shapes.* Every structural driver of a run — critical-path
//      compute, fabric messages, wire bytes, block fetches, fetch stall,
//      accumulate/reduction savings — is fit as d(N) = a + b·N^i·log2(N)^j
//      over a small exponent grid (the PMNF of the Extra-P line of work),
//      selected by leave-one-out cross-validation so four-to-seven
//      observations cannot buy a wiggly hypothesis.
//   2. *Time composition.* Virtual time is modeled as a non-negative
//      linear combination of analytic per-term costs built from those
//      drivers and the machine's link parameters: per-phase critical
//      compute, per-fetch round trips, wire-byte serialization, per-
//      message software overhead, per-node residual fetch stall, and the
//      allgather each payload-carrying commit runs. Coefficients are
//      fit by ridge-regularized non-negative least squares pulled toward
//      the physical prior (coefficient 1 = the analytic cost is exactly
//      right), so the fit *corrects* the cost model instead of free-
//      fitting it — and a coefficient drifting between two fits names the
//      cost term that regressed (the drift oracle in tools/ci.sh).
//
// Everything here is a pure function of Observations; tests drive it with
// synthetic data of known shape.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/options.hpp"

namespace ppm::cluster {
struct MachineConfig;
}

namespace ppm::model {

/// One traced modeled run at a fixed node count: the structural counters
/// the model composes over, extracted from RunResult (+ trace_summary).
struct Observation {
  int nodes = 0;
  int cores = 0;
  int64_t vtime_ns = 0;
  uint64_t messages = 0;           // fabric messages
  uint64_t bytes = 0;              // fabric bytes
  uint64_t fetches = 0;            // remote blocks fetched
  uint64_t stall_ns = 0;           // VP fetch-stall time, summed over nodes
  uint64_t global_phases = 0;      // per runtime
  uint64_t payload_commits = 0;    // per runtime: commits that allgathered
  uint64_t node_phases = 0;        // per node
  int64_t compute_critical_ns = 0;  // sum of per-phase max compute legs
  int64_t commit_critical_ns = 0;   // sum of per-phase commit rounds
  uint64_t reduction_bytes_saved = 0;
};

/// Build an Observation from a collected run. Requires the run to have
/// been traced (RuntimeOptions::trace) — the critical-path split comes
/// from RunResult::trace_summary.
Observation observe(int nodes, int cores, const RunResult& r);

/// One fitted counter hypothesis: d(N) = a + b · N^exponent · log2(N)^
/// log_power. exponent == 0 && log_power == 0 encodes the constant model
/// (b folded away).
struct Shape {
  double a = 0.0;
  double b = 0.0;
  double exponent = 0.0;
  int log_power = 0;

  /// Evaluate at node count n (n >= 1). Not clamped; counter users clamp
  /// to >= 0 themselves.
  double eval(double n) const;
  /// e.g. "123.4 + 5.6*N^0.50*log2(N)^1" or "123.4" for the constant fit.
  std::string formula() const;
};

/// Least-squares PMNF fit of (ns, ys) with leave-one-out CV model
/// selection. ns must all be >= 1 and hold at least two distinct values
/// (with fewer the constant model is returned).
Shape fit_shape(std::span<const double> ns, std::span<const double> ys);

/// Per-unit analytic costs of the simulated machine, the constants the
/// composed terms are built from.
struct MachineCosts {
  double latency_ns = 5'000;
  double bytes_per_ns = 2.0;
  double send_overhead_ns = 500;
  double recv_overhead_ns = 500;

  static MachineCosts from_config(const cluster::MachineConfig& cfg);
};

/// One composed cost term: fitted multiplier on an analytic driver.
struct CostTerm {
  std::string name;
  double coefficient = 1.0;  // fitted (>= 0)
  double prior = 1.0;        // ridge target ("the analytic cost is right")
};

/// Model evaluation at one node count.
struct Prediction {
  int nodes = 0;
  double vtime_ns = 0;
  double messages = 0;
  double bytes = 0;
  double fetches = 0;
  double stall_ns = 0;
  double reduction_bytes_saved = 0;
  /// Per-term share of vtime_ns, aligned with Model::terms.
  std::vector<double> term_ns;
};

/// Names of the counter shapes a Model carries, in storage order.
inline constexpr const char* kCounterNames[] = {
    "compute_critical_ns", "messages",        "bytes", "fetches",
    "stall_ns",            "payload_commits", "reduction_bytes_saved"};
inline constexpr size_t kCounters = 7;

/// Names of the composed vtime terms, in storage order.
inline constexpr const char* kTermNames[] = {
    "compute", "fetch_rt", "wire", "msg_sw", "stall_node", "barrier"};
inline constexpr size_t kTerms = 6;

struct Model {
  MachineCosts costs;
  int cores = 0;
  std::vector<int> fit_nodes;
  Shape counters[kCounters];  // indexed like kCounterNames
  std::vector<CostTerm> terms;  // kTerms entries, kTermNames order
  /// Relative fit residual (model/measured - 1) per fit observation.
  std::vector<double> fit_rel_err;

  /// Evaluate the composed model at an arbitrary node count (>= 2).
  Prediction predict(int nodes) const;
  /// Human-readable report: shapes, coefficients, fit residuals.
  std::string to_string() const;
};

/// Fit the full model from traced modeled observations (>= 3, distinct
/// node counts, same cores). Deterministic: same observations, same model.
Model fit(std::span<const Observation> obs, const MachineCosts& costs);

/// The analytic per-term drivers (ns each) the composition uses, for one
/// set of counter values at node count n of `cores` cores each. Exposed
/// for tests and for the drift oracle's documentation; returns kTerms
/// values in kTermNames order.
std::vector<double> term_drivers(const MachineCosts& costs, double nodes,
                                 int cores, double compute_critical_ns,
                                 double messages, double bytes,
                                 double fetches, double stall_ns,
                                 double payload_commits);

}  // namespace ppm::model
