#include "model/model.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "cluster/machine.hpp"
#include "core/runtime.hpp"
#include "util/error.hpp"

namespace ppm::model {

namespace {

/// PMNF exponent grid. Small on purpose: with a handful of observations a
/// richer hypothesis space buys variance, not insight (Extra-P's lesson).
constexpr double kExponents[] = {-1.0, -0.5, 0.0,     1.0 / 3.0, 0.5,
                                 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.5, 2.0};
constexpr int kLogPowers[] = {0, 1, 2};

double shape_basis(double n, double exponent, int log_power) {
  double v = std::pow(n, exponent);
  if (log_power != 0) v *= std::pow(std::log2(n), log_power);
  return v;
}

/// Closed-form least squares of y = a + b*x. Degenerate x (constant)
/// returns the mean with b = 0.
void ls_ab(std::span<const double> xs, std::span<const double> ys,
           double* a, double* b) {
  const double m = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t k = 0; k < xs.size(); ++k) {
    sx += xs[k];
    sy += ys[k];
    sxx += xs[k] * xs[k];
    sxy += xs[k] * ys[k];
  }
  const double det = m * sxx - sx * sx;
  if (std::abs(det) < 1e-12 * std::max(1.0, sxx)) {
    *a = sy / m;
    *b = 0.0;
    return;
  }
  *b = (m * sxy - sx * sy) / det;
  *a = (sy - *b * sx) / m;
}

/// Solve the symmetric linear system M x = r in place (Gaussian
/// elimination with partial pivoting). Dimensions are tiny (<= kTerms).
bool solve_inplace(std::vector<std::vector<double>>& m,
                   std::vector<double>& r) {
  const size_t n = r.size();
  for (size_t p = 0; p < n; ++p) {
    size_t piv = p;
    for (size_t q = p + 1; q < n; ++q) {
      if (std::abs(m[q][p]) > std::abs(m[piv][p])) piv = q;
    }
    if (std::abs(m[piv][p]) < 1e-300) return false;
    std::swap(m[p], m[piv]);
    std::swap(r[p], r[piv]);
    for (size_t q = p + 1; q < n; ++q) {
      const double f = m[q][p] / m[p][p];
      for (size_t c = p; c < n; ++c) m[q][c] -= f * m[p][c];
      r[q] -= f * r[p];
    }
  }
  for (size_t p = n; p-- > 0;) {
    double s = r[p];
    for (size_t c = p + 1; c < n; ++c) s -= m[p][c] * r[c];
    r[p] = s / m[p][p];
  }
  return true;
}

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out.append(buf, static_cast<size_t>(n));
}

}  // namespace

double Shape::eval(double n) const {
  if (exponent == 0.0 && log_power == 0) return a;
  return a + b * shape_basis(n, exponent, log_power);
}

std::string Shape::formula() const {
  std::string out;
  if (exponent == 0.0 && log_power == 0) {
    appendf(out, "%.6g", a);
    return out;
  }
  appendf(out, "%.6g + %.6g*N^%.2f", a, b, exponent);
  if (log_power != 0) appendf(out, "*log2(N)^%d", log_power);
  return out;
}

Shape fit_shape(std::span<const double> ns, std::span<const double> ys) {
  PPM_CHECK(ns.size() == ys.size(), "fit_shape: ns/ys size mismatch");
  const size_t m = ns.size();
  Shape best;
  if (m == 0) return best;
  {  // constant fallback, also the m < 3 answer
    double s = 0;
    for (double y : ys) s += y;
    best.a = s / static_cast<double>(m);
  }
  if (m < 3) return best;

  double best_key = -1.0;
  std::vector<double> xs(m), xs2(m - 1), ys2(m - 1);
  for (double exponent : kExponents) {
    for (int log_power : kLogPowers) {
      if (exponent == 0.0 && log_power == 0) {
        // The constant hypothesis: basis identically zero.
        for (size_t k = 0; k < m; ++k) xs[k] = 0.0;
      } else {
        for (size_t k = 0; k < m; ++k) {
          xs[k] = shape_basis(ns[k], exponent, log_power);
        }
      }
      // Leave-one-out cross-validation error of the hypothesis.
      double cv = 0.0;
      for (size_t leave = 0; leave < m; ++leave) {
        size_t w = 0;
        for (size_t k = 0; k < m; ++k) {
          if (k == leave) continue;
          xs2[w] = xs[k];
          ys2[w] = ys[k];
          ++w;
        }
        double a, b;
        ls_ab(std::span<const double>(xs2.data(), w),
              std::span<const double>(ys2.data(), w), &a, &b);
        const double err = a + b * xs[leave] - ys[leave];
        cv += err * err;
      }
      // Mild simplicity preference: near-tied hypotheses resolve toward
      // small exponents and no log factors.
      const double key =
          cv * (1.0 + 0.02 * (std::abs(exponent) + 0.5 * log_power));
      if (best_key < 0.0 || key < best_key) {
        best_key = key;
        ls_ab(xs, ys, &best.a, &best.b);
        best.exponent = exponent;
        best.log_power = log_power;
        if (best.b == 0.0) {  // degenerate: normalize to the constant form
          best.exponent = 0.0;
          best.log_power = 0;
        }
      }
    }
  }
  return best;
}

MachineCosts MachineCosts::from_config(const cluster::MachineConfig& cfg) {
  MachineCosts c;
  c.latency_ns = static_cast<double>(cfg.network.latency_ns);
  c.bytes_per_ns = cfg.network.bytes_per_ns;
  c.send_overhead_ns = static_cast<double>(cfg.network.send_overhead_ns);
  c.recv_overhead_ns = static_cast<double>(cfg.network.recv_overhead_ns);
  return c;
}

Observation observe(int nodes, int cores, const RunResult& r) {
  PPM_CHECK(r.trace_summary.events != 0,
            "model::observe requires a traced run (RuntimeOptions::trace)");
  Observation o;
  o.nodes = nodes;
  o.cores = cores;
  o.vtime_ns = r.duration_ns;
  o.messages = r.network_messages;
  o.bytes = r.network_bytes;
  o.fetches = r.remote_blocks_fetched;
  o.stall_ns = r.fetch_stall_ns;
  // Global commits come per runtime already (Runtime::collect divides);
  // node phases are summed over nodes, so divide back to per node.
  o.global_phases = r.global_phases;
  o.payload_commits = r.payload_commits;
  o.node_phases = nodes > 0 ? r.node_phases / nodes : r.node_phases;
  for (const auto& p : r.trace_summary.phases) {
    o.compute_critical_ns += p.compute_max_ns;
    o.commit_critical_ns += p.commit_round_ns;
  }
  o.reduction_bytes_saved = r.reduction_bytes_saved;
  return o;
}

std::vector<double> term_drivers(const MachineCosts& costs, double nodes,
                                 int cores, double compute_critical_ns,
                                 double messages, double bytes,
                                 double fetches, double stall_ns,
                                 double payload_commits) {
  const double sw = costs.send_overhead_ns + costs.recv_overhead_ns;
  const net::LinkParams link{
      .latency_ns = std::llround(costs.latency_ns),
      .bytes_per_ns = costs.bytes_per_ns,
      .send_overhead_ns = std::llround(costs.send_overhead_ns),
      .recv_overhead_ns = std::llround(costs.recv_overhead_ns)};
  const AllgatherPlan allgather =
      plan_allgather(link, static_cast<int>(nodes), cores);
  return {
      // compute: the critical-path compute legs, straight time.
      compute_critical_ns,
      // fetch_rt: each remote block fetch on the average node pays a
      // round trip (request + response) plus both software overheads
      // twice.
      (fetches / nodes) * (2.0 * costs.latency_ns + 2.0 * sw),
      // wire: this node's share of the byte volume, serialized at link
      // bandwidth.
      (bytes / nodes) / costs.bytes_per_ns,
      // msg_sw: per-message software cost of this node's share of the
      // message count.
      (messages / nodes) * sw,
      // stall_node: residual per-node fetch stall the fetch_rt term's
      // idealized round trips do not capture (queueing, convoying).
      stall_ns / nodes,
      // barrier: a commit carrying a reduction or migration payload runs
      // the runtime's allgather (direct or Bruck, as the runtime picks);
      // the others end at the write-bundle exchange, priced above.
      payload_commits * static_cast<double>(allgather.cost_ns),
  };
}

Model fit(std::span<const Observation> obs, const MachineCosts& costs) {
  PPM_CHECK(obs.size() >= 3, "model::fit needs >= 3 observations");
  Model mdl;
  mdl.costs = costs;
  mdl.cores = obs[0].cores;
  for (const auto& o : obs) {
    PPM_CHECK(o.cores == mdl.cores,
              "model::fit: observations mix cores_per_node");
    mdl.fit_nodes.push_back(o.nodes);
  }

  // Layer 1: PMNF shape per counter.
  const size_t m = obs.size();
  std::vector<double> ns(m), ys(m);
  for (size_t k = 0; k < m; ++k) ns[k] = static_cast<double>(obs[k].nodes);
  auto fit_counter = [&](size_t idx, auto getter) {
    for (size_t k = 0; k < m; ++k) {
      ys[k] = static_cast<double>(getter(obs[k]));
    }
    mdl.counters[idx] = fit_shape(ns, ys);
  };
  fit_counter(0, [](const Observation& o) { return o.compute_critical_ns; });
  fit_counter(1, [](const Observation& o) { return o.messages; });
  fit_counter(2, [](const Observation& o) { return o.bytes; });
  fit_counter(3, [](const Observation& o) { return o.fetches; });
  fit_counter(4, [](const Observation& o) { return o.stall_ns; });
  fit_counter(5, [](const Observation& o) { return o.payload_commits; });
  fit_counter(6,
              [](const Observation& o) { return o.reduction_bytes_saved; });

  // Layer 2: ridge-regularized NNLS of vtime over the analytic terms,
  // pulled toward the physical prior. Measured drivers (not the shapes)
  // feed the fit; shapes only extrapolate.
  static const double kPriors[kTerms] = {1.0, 1.0, 1.0, 1.0, 0.5, 1.0};
  constexpr double kLambda = 0.05;
  std::vector<std::vector<double>> a(m);
  std::vector<double> y(m);
  for (size_t r = 0; r < m; ++r) {
    const Observation& o = obs[r];
    a[r] = term_drivers(costs, o.nodes, o.cores,
                        static_cast<double>(o.compute_critical_ns),
                        static_cast<double>(o.messages),
                        static_cast<double>(o.bytes),
                        static_cast<double>(o.fetches),
                        static_cast<double>(o.stall_ns),
                        static_cast<double>(o.payload_commits));
    y[r] = static_cast<double>(o.vtime_ns);
  }
  double ata[kTerms][kTerms];
  double aty[kTerms];
  double colnorm[kTerms];
  for (size_t i = 0; i < kTerms; ++i) {
    aty[i] = 0;
    colnorm[i] = 0;
    for (size_t j = 0; j < kTerms; ++j) ata[i][j] = 0;
    for (size_t r = 0; r < m; ++r) {
      aty[i] += a[r][i] * y[r];
      colnorm[i] += a[r][i] * a[r][i];
      for (size_t j = 0; j < kTerms; ++j) ata[i][j] += a[r][i] * a[r][j];
    }
    if (colnorm[i] < 1e-18) colnorm[i] = 1e-18;
  }
  bool active[kTerms];
  double coeff[kTerms];
  for (size_t i = 0; i < kTerms; ++i) {
    active[i] = true;
    coeff[i] = kPriors[i];
  }
  for (int pass = 0; pass < 2 * static_cast<int>(kTerms); ++pass) {
    std::vector<size_t> idx;
    for (size_t i = 0; i < kTerms; ++i) {
      if (active[i]) idx.push_back(i);
    }
    if (idx.empty()) break;
    std::vector<std::vector<double>> mm(idx.size(),
                                        std::vector<double>(idx.size()));
    std::vector<double> rhs(idx.size());
    for (size_t p = 0; p < idx.size(); ++p) {
      for (size_t q = 0; q < idx.size(); ++q) {
        mm[p][q] = ata[idx[p]][idx[q]];
      }
      mm[p][p] += kLambda * colnorm[idx[p]];
      rhs[p] = aty[idx[p]] + kLambda * colnorm[idx[p]] * kPriors[idx[p]];
    }
    if (!solve_inplace(mm, rhs)) break;
    for (size_t i = 0; i < kTerms; ++i) coeff[i] = 0.0;
    for (size_t p = 0; p < idx.size(); ++p) coeff[idx[p]] = rhs[p];
    // Active-set step of NNLS: drop every negative coefficient and
    // re-solve on the survivors.
    bool dropped = false;
    for (size_t i = 0; i < kTerms; ++i) {
      if (active[i] && coeff[i] < 0.0) {
        active[i] = false;
        coeff[i] = 0.0;
        dropped = true;
      }
    }
    if (!dropped) break;
  }
  mdl.terms.resize(kTerms);
  for (size_t i = 0; i < kTerms; ++i) {
    mdl.terms[i] = {kTermNames[i], coeff[i], kPriors[i]};
  }

  for (size_t r = 0; r < m; ++r) {
    double pred = 0;
    for (size_t i = 0; i < kTerms; ++i) pred += coeff[i] * a[r][i];
    mdl.fit_rel_err.push_back(y[r] > 0 ? pred / y[r] - 1.0 : 0.0);
  }
  return mdl;
}

Prediction Model::predict(int nodes) const {
  PPM_CHECK(nodes >= 2, "model predictions need >= 2 nodes");
  const double n = static_cast<double>(nodes);
  auto counter = [&](size_t idx) {
    return std::max(0.0, counters[idx].eval(n));
  };
  Prediction p;
  p.nodes = nodes;
  const double compute = counter(0);
  p.messages = counter(1);
  p.bytes = counter(2);
  p.fetches = counter(3);
  p.stall_ns = counter(4);
  const double payload_commits = counter(5);
  p.reduction_bytes_saved = counter(6);
  const std::vector<double> drivers =
      term_drivers(costs, n, cores, compute, p.messages, p.bytes,
                   p.fetches, p.stall_ns, payload_commits);
  p.term_ns.resize(kTerms);
  for (size_t i = 0; i < kTerms; ++i) {
    p.term_ns[i] = terms[i].coefficient * drivers[i];
    p.vtime_ns += p.term_ns[i];
  }
  return p;
}

std::string Model::to_string() const {
  std::string out;
  out += "performance model (ppm::model):\n";
  out += "  counter shapes d(N) fit at N = {";
  for (size_t i = 0; i < fit_nodes.size(); ++i) {
    appendf(out, "%s%d", i == 0 ? "" : ", ", fit_nodes[i]);
  }
  out += "}:\n";
  for (size_t i = 0; i < kCounters; ++i) {
    appendf(out, "    %-22s = %s\n", kCounterNames[i],
            counters[i].formula().c_str());
  }
  out += "  vtime terms (coefficient x analytic driver):\n";
  for (const auto& t : terms) {
    appendf(out, "    %-12s coeff %.4f (prior %.2f)\n", t.name.c_str(),
            t.coefficient, t.prior);
  }
  out += "  fit residuals (model vs measured):\n";
  for (size_t i = 0; i < fit_rel_err.size(); ++i) {
    appendf(out, "    N=%-4d %+.1f%%\n", fit_nodes[i],
            fit_rel_err[i] * 100.0);
  }
  return out;
}

}  // namespace ppm::model
