// Lightweight statistics accumulators used by the simulator, the network
// model, and the benchmark harness.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ppm {

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStat {
 public:
  void add(double x);

  int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  void merge(const RunningStat& other);

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Monotonically increasing counters keyed at construction time; used for
/// network traffic accounting (messages, bytes, per-kind tallies).
///
/// Increments are relaxed atomics: with more than one simulator host
/// thread (docs/SIM.md) the fabric bumps the aggregate counters from
/// several host threads at once. Totals stay exact (each add lands once); only the
/// momentary interleaving is unordered, which no reader depends on.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : value_(other.value()) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Fixed-boundary histogram for latency/size distributions.
class Histogram {
 public:
  /// Buckets: (-inf, bounds[0]], (bounds[0], bounds[1]], ..., (last, +inf)
  explicit Histogram(std::vector<double> bounds);

  void add(double x);
  uint64_t bucket_count(size_t i) const { return counts_.at(i); }
  size_t num_buckets() const { return counts_.size(); }
  uint64_t total() const { return total_; }

  /// Approximate quantile via linear interpolation across buckets.
  double quantile(double q) const;

  std::string to_string() const;

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace ppm
