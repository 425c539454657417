// ppm::model unit coverage (docs/OBSERVABILITY.md): PMNF shape recovery
// on synthetic counter curves of known form, analytic term drivers,
// composition fits on synthetic runs with known ground truth, counter
// clamping on extrapolation, Observation extraction, and determinism —
// all pure functions, no simulator runs.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "model/model.hpp"
#include "util/error.hpp"

namespace ppm::model {
namespace {

std::vector<double> node_counts() { return {2, 3, 4, 5, 6, 7, 8}; }

TEST(FitShape, RecoversLinear) {
  std::vector<double> ns = node_counts(), ys;
  for (double n : ns) ys.push_back(100.0 + 7.0 * n);
  const Shape s = fit_shape(ns, ys);
  EXPECT_DOUBLE_EQ(s.exponent, 1.0);
  EXPECT_EQ(s.log_power, 0);
  EXPECT_NEAR(s.a, 100.0, 1e-6);
  EXPECT_NEAR(s.b, 7.0, 1e-8);
  for (double n : {12.0, 16.0, 512.0}) {
    EXPECT_NEAR(s.eval(n), 100.0 + 7.0 * n, 1e-5);
  }
}

TEST(FitShape, RecoversConstant) {
  std::vector<double> ns = node_counts(), ys(ns.size(), 42.0);
  const Shape s = fit_shape(ns, ys);
  EXPECT_DOUBLE_EQ(s.exponent, 0.0);
  EXPECT_EQ(s.log_power, 0);
  EXPECT_NEAR(s.eval(9660.0), 42.0, 1e-9);
}

TEST(FitShape, RecoversNLogN) {
  std::vector<double> ns = node_counts(), ys;
  for (double n : ns) ys.push_back(3.0 + 5.0 * n * std::log2(n));
  const Shape s = fit_shape(ns, ys);
  EXPECT_DOUBLE_EQ(s.exponent, 1.0);
  EXPECT_EQ(s.log_power, 1);
  EXPECT_NEAR(s.eval(16.0), 3.0 + 5.0 * 16.0 * 4.0, 1e-4);
}

TEST(FitShape, RecoversInverse) {
  std::vector<double> ns = node_counts(), ys;
  for (double n : ns) ys.push_back(50.0 + 1000.0 / n);
  const Shape s = fit_shape(ns, ys);
  EXPECT_DOUBLE_EQ(s.exponent, -1.0);
  EXPECT_EQ(s.log_power, 0);
  EXPECT_NEAR(s.eval(16.0), 50.0 + 1000.0 / 16.0, 1e-4);
}

TEST(FitShape, TooFewPointsFallBackToMean) {
  const std::vector<double> ns = {2, 4};
  const std::vector<double> ys = {10.0, 30.0};
  const Shape s = fit_shape(ns, ys);
  EXPECT_DOUBLE_EQ(s.exponent, 0.0);
  EXPECT_EQ(s.log_power, 0);
  EXPECT_DOUBLE_EQ(s.eval(8.0), 20.0);
}

TEST(FitShape, FormulaRoundTrips) {
  std::vector<double> ns = node_counts(), ys;
  for (double n : ns) ys.push_back(2.0 * n);
  const Shape s = fit_shape(ns, ys);
  EXPECT_NE(s.formula().find("N^1.00"), std::string::npos) << s.formula();
}

TEST(TermDrivers, MatchAnalyticCosts) {
  const MachineCosts c;  // 5000 ns latency, 2 B/ns, 500+500 ns overheads
  const std::vector<double> d =
      term_drivers(c, /*nodes=*/8.0, /*cores=*/1, /*compute=*/1e6,
                   /*messages=*/800.0,
                   /*bytes=*/64000.0, /*fetches=*/160.0, /*stall=*/8000.0,
                   /*payload_commits=*/10.0);
  ASSERT_EQ(d.size(), kTerms);
  EXPECT_DOUBLE_EQ(d[0], 1e6);                            // compute
  EXPECT_DOUBLE_EQ(d[1], 20.0 * (2 * 5000 + 2 * 1000));   // fetch_rt
  EXPECT_DOUBLE_EQ(d[2], 8000.0 / 2.0);                   // wire
  EXPECT_DOUBLE_EQ(d[3], 100.0 * 1000.0);                 // msg_sw
  EXPECT_DOUBLE_EQ(d[4], 1000.0);                         // stall_node
  EXPECT_DOUBLE_EQ(d[5], 10.0 * (7 * 500 + 5500));        // barrier, direct
}

TEST(TermDrivers, BarrierPricesTheRuntimesAllgather) {
  const MachineCosts c;
  const auto per_commit = [&](double n, int cores) {
    return term_drivers(c, n, cores, 0, 0, 0, 0, 0, 1.0)[5];
  };
  // Direct while one core's p-1 send overheads undercut ceil(log2 p)
  // hops: the sends leave from all c cores, ceil((p-1)/c)*send + latency
  // + recv.
  EXPECT_DOUBLE_EQ(per_commit(2, 1), 500.0 + 5500.0);
  EXPECT_DOUBLE_EQ(per_commit(12, 1), 11 * 500.0 + 5500.0);
  EXPECT_DOUBLE_EQ(per_commit(64, 1), 63 * 500.0 + 5500.0);
  EXPECT_DOUBLE_EQ(per_commit(2, 4), 500.0 + 5500.0);
  EXPECT_DOUBLE_EQ(per_commit(12, 4), 3 * 500.0 + 5500.0);
  EXPECT_DOUBLE_EQ(per_commit(64, 4), 16 * 500.0 + 5500.0);
  // Bruck beyond, whatever the cores: ceil(log2 p) hops of send +
  // latency + recv.
  for (const int cores : {1, 4}) {
    EXPECT_DOUBLE_EQ(per_commit(128, cores), 7 * 6000.0);
    EXPECT_DOUBLE_EQ(per_commit(9660, cores), 14 * 6000.0);
  }
}

/// Synthetic observations whose vtime is an exact known combination of
/// the analytic terms, with counters following exact PMNF shapes.
std::vector<Observation> synthetic_runs(const MachineCosts& costs,
                                        const double (&coeff)[kTerms]) {
  std::vector<Observation> obs;
  for (double n : node_counts()) {
    Observation o;
    o.nodes = static_cast<int>(n);
    o.cores = 4;
    o.compute_critical_ns = static_cast<int64_t>(2e6 / n + 5e4);
    o.messages = static_cast<uint64_t>(100.0 * n * n);
    o.bytes = static_cast<uint64_t>(30000.0 * n * std::log2(n) + 8000.0);
    o.fetches = static_cast<uint64_t>(50.0 * n);
    o.stall_ns = static_cast<uint64_t>(40000.0 * n);
    o.payload_commits = 24;
    const std::vector<double> d = term_drivers(
        costs, n, o.cores, static_cast<double>(o.compute_critical_ns),
        static_cast<double>(o.messages), static_cast<double>(o.bytes),
        static_cast<double>(o.fetches), static_cast<double>(o.stall_ns),
        static_cast<double>(o.payload_commits));
    double v = 0;
    for (size_t i = 0; i < kTerms; ++i) v += coeff[i] * d[i];
    o.vtime_ns = static_cast<int64_t>(v);
    obs.push_back(o);
  }
  return obs;
}

TEST(Fit, TightResidualsAndAccurateExtrapolationOnSyntheticRuns) {
  const MachineCosts costs;
  const double truth[kTerms] = {1.0, 0.9, 1.1, 1.0, 0.5, 1.2};
  const std::vector<Observation> obs = synthetic_runs(costs, truth);
  const Model m = fit(obs, costs);
  ASSERT_EQ(m.terms.size(), kTerms);
  ASSERT_EQ(m.fit_rel_err.size(), obs.size());
  for (double e : m.fit_rel_err) EXPECT_LT(std::abs(e), 0.02) << e;
  for (const CostTerm& t : m.terms) EXPECT_GE(t.coefficient, 0.0) << t.name;
  // Held-out ground truth at 12 and 16 nodes, built the same way.
  for (double n : {12.0, 16.0}) {
    const std::vector<double> d = term_drivers(
        costs, n, 4, 2e6 / n + 5e4, 100.0 * n * n,
        30000.0 * n * std::log2(n) + 8000.0, 50.0 * n, 40000.0 * n, 24.0);
    double want = 0;
    for (size_t i = 0; i < kTerms; ++i) want += truth[i] * d[i];
    const Prediction p = m.predict(static_cast<int>(n));
    EXPECT_NEAR(p.vtime_ns / want, 1.0, 0.05) << "N=" << n;
    ASSERT_EQ(p.term_ns.size(), kTerms);
    double sum = 0;
    for (double t : p.term_ns) sum += t;
    EXPECT_NEAR(sum, p.vtime_ns, 1e-6);  // breakdown adds up
  }
}

TEST(Fit, IsDeterministic) {
  const MachineCosts costs;
  const double truth[kTerms] = {1.0, 1.0, 1.0, 1.0, 0.5, 1.0};
  const std::vector<Observation> obs = synthetic_runs(costs, truth);
  const Model a = fit(obs, costs);
  const Model b = fit(obs, costs);
  EXPECT_EQ(a.to_string(), b.to_string());
  for (size_t i = 0; i < kTerms; ++i) {
    EXPECT_EQ(a.terms[i].coefficient, b.terms[i].coefficient);
  }
  EXPECT_EQ(a.predict(9660).vtime_ns, b.predict(9660).vtime_ns);
}

TEST(Fit, RejectsTooFewObservations) {
  const MachineCosts costs;
  std::vector<Observation> obs(2);
  obs[0].nodes = 2;
  obs[1].nodes = 4;
  EXPECT_THROW(fit(obs, costs), Error);
}

TEST(Predict, ClampsExtrapolatedCountersToZero) {
  Model m;
  m.cores = 4;
  m.fit_nodes = {2, 4, 8};
  for (size_t i = 0; i < kCounters; ++i) {
    // Negative slope: eval() goes below zero past N=10.
    m.counters[i] = Shape{.a = 100.0, .b = -10.0, .exponent = 1.0,
                          .log_power = 0};
  }
  m.terms.resize(kTerms);
  for (size_t i = 0; i < kTerms; ++i) {
    m.terms[i] = {kTermNames[i], 1.0, 1.0};
  }
  const Prediction p = m.predict(64);
  EXPECT_DOUBLE_EQ(p.messages, 0.0);
  EXPECT_DOUBLE_EQ(p.bytes, 0.0);
  EXPECT_DOUBLE_EQ(p.fetches, 0.0);
  EXPECT_DOUBLE_EQ(p.vtime_ns, 0.0);
}

TEST(Observe, ExtractsCountersFromRunResult) {
  RunResult r;
  r.duration_ns = 123456;
  r.network_messages = 640;
  r.network_bytes = 51200;
  r.remote_blocks_fetched = 80;
  r.fetch_stall_ns = 9000;
  r.global_phases = 24;  // per runtime already (Runtime::collect divides)
  r.payload_commits = 16;
  r.node_phases = 8;
  r.reduction_bytes_saved = 192;
  r.trace_summary.events = 1000;
  trace::PhaseCritical p1;
  p1.compute_max_ns = 700;
  p1.commit_round_ns = 300;
  trace::PhaseCritical p2;
  p2.compute_max_ns = 1300;
  p2.commit_round_ns = 200;
  r.trace_summary.phases = {p1, p2};
  const Observation o = observe(4, 4, r);
  EXPECT_EQ(o.nodes, 4);
  EXPECT_EQ(o.vtime_ns, 123456);
  EXPECT_EQ(o.messages, 640u);
  EXPECT_EQ(o.global_phases, 24u);
  EXPECT_EQ(o.payload_commits, 16u);
  EXPECT_EQ(o.compute_critical_ns, 2000);
  EXPECT_EQ(o.commit_critical_ns, 500);
  EXPECT_EQ(o.reduction_bytes_saved, 192u);
}

TEST(Observe, RequiresTracedRun) {
  RunResult r;
  r.duration_ns = 1;
  EXPECT_THROW(observe(4, 4, r), Error);
}

}  // namespace
}  // namespace ppm::model
