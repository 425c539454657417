// Conservative-window parallel execution of many Engines (docs/SIM.md).
//
// The windowed driver implements the classic Chandy–Misra–Bryant
// discipline: with one Engine per simulated node and a lookahead equal to
// the minimum cross-engine message latency, every engine can safely fire
// all events in [t_min, t_min + lookahead) without hearing from its peers —
// any message sent inside the window arrives no earlier than the window's
// end. Engines run their windows concurrently on a host-thread pool;
// cross-engine traffic is collected into per-source outboxes and injected
// at the barrier between windows in one deterministic, globally sorted
// order. Because the injection order (and with it every engine's event
// sequence numbering) is fixed at the barrier regardless of how many host
// threads raced through the window, a run is bit-identical across thread
// counts by construction.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine.hpp"

namespace ppm::sim {

/// Fixed-size host thread pool for window execution. `threads` counts the
/// calling thread: HostPool(1) spawns nothing and run() executes inline,
/// so a one-thread machine has no host concurrency at all.
/// Workers sleep on a condition variable between rounds (no spinning — the
/// driver is designed to behave on oversubscribed or single-core hosts).
class HostPool {
 public:
  explicit HostPool(int threads);
  ~HostPool();

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  /// Execute every task once; the caller participates and returns when all
  /// tasks completed. Tasks must not throw (wrap exceptions yourself).
  void run(const std::vector<std::function<void()>>& tasks);

  int threads() const { return threads_; }

 private:
  void worker_main();
  /// Pop-and-run tasks from the current round until none remain.
  void drain();

  int threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: a new round is posted
  std::condition_variable done_cv_;   // caller: all tasks of a round done
  const std::vector<std::function<void()>>* tasks_ = nullptr;
  size_t next_task_ = 0;     // guarded by mu_
  size_t unfinished_ = 0;    // guarded by mu_
  uint64_t round_ = 0;       // guarded by mu_
  bool stop_ = false;
};

/// Aggregate statistics of one windowed run, for tests and benches.
struct WindowStats {
  uint64_t windows = 0;            // barriers executed
  uint64_t engine_activations = 0; // run_until calls that had work
};

/// Drive a set of engines to completion in conservative windows.
///
/// `exchange(horizon_ns)` is called at every window barrier (single
/// threaded) and must move all pending cross-engine messages into their
/// destination engines' event queues, returning how many it injected;
/// `horizon_ns` is the boundary every engine has completed, i.e. the floor
/// below which no new event may be scheduled. The run ends when every
/// queue is empty and a final exchange injects nothing. The caller is
/// responsible for the cross-engine deadlock check afterwards.
class WindowScheduler {
 public:
  WindowScheduler(std::vector<Engine*> engines, int64_t lookahead_ns,
                  HostPool& pool);

  void run(const std::function<uint64_t(int64_t horizon_ns)>& exchange);

  const WindowStats& stats() const { return stats_; }

 private:
  std::vector<Engine*> engines_;
  int64_t lookahead_ns_;
  HostPool& pool_;
  WindowStats stats_;
};

}  // namespace ppm::sim
