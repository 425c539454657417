// Discrete-event simulation engine with virtual time.
//
// The engine owns a set of fibers (one per simulated core of its node,
// plus runtime service fibers) and a time-ordered event queue. Virtual
// time advances in two ways:
//   * modeled costs: sim::advance(ns) and timed events (network delivery,
//     sleeps) — always deterministic;
//   * measured compute: in CalibrationMode::kMeasured the wall-clock
//     duration of each fiber slice, scaled by `calibration_factor`, is
//     charged to the fiber's virtual clock. This lets real application
//     kernels (SpMV, force walks, numerical integration) cost what they
//     actually cost without hand-counting flops.
//
// A cluster runs one Engine per simulated node (cluster::Machine), driven
// in conservative time windows by sim::WindowScheduler. Exactly one fiber
// of an engine runs at a time, on one host thread, so simulated "shared
// memory" accesses within a node need no host synchronization.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/fiber.hpp"

namespace ppm::sim {

/// advance_ns charges below this threshold skip the conservative
/// scheduling point (no event-queue check, no context switch). Virtual-time
/// causality is therefore only guaranteed at >= this granularity; per-access
/// cost models rely on the cheap path.
inline constexpr int64_t kSmallAdvanceNs = 1000;

enum class CalibrationMode : uint8_t {
  kModeledOnly,  // virtual time advances only through advance()/events
  kMeasured,     // wall time of compute slices is charged to virtual time
};

struct EngineConfig {
  CalibrationMode calibration = CalibrationMode::kModeledOnly;
  /// Virtual nanoseconds charged per measured wall nanosecond.
  double calibration_factor = 1.0;
  size_t default_stack_bytes = 512 * 1024;
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Create a fiber; it becomes runnable at virtual time `start_ns`.
  Fiber::Id spawn(std::string name, std::function<void()> entry,
                  int64_t start_ns = 0, size_t stack_bytes = 0);

  /// Schedule `fn` to run on the engine (not on a fiber) at virtual `t_ns`.
  void at(int64_t t_ns, std::function<void()> fn);

  /// Run until the event queue drains. Throws if a fiber threw, or if
  /// fibers remain blocked with no pending events (deadlock).
  void run();

  /// Partial run for the conservative-window parallel driver
  /// (sim/parallel.hpp): fire events strictly before `horizon_ns`, then
  /// return. Unlike run() this performs no deadlock check — an engine with
  /// only blocked fibers may legitimately be waiting for a cross-engine
  /// message injected at the next window boundary. Rethrows a fiber's
  /// escaped exception just like run().
  void run_until(int64_t horizon_ns);

  /// Timestamp of the earliest pending event, or INT64_MAX when the queue
  /// is empty. The windowed driver takes the minimum across engines to
  /// place the next window boundary.
  int64_t next_event_ns() const;

  /// Space-separated names of fibers that have not finished (empty when
  /// all are done). run() turns a non-empty answer into a deadlock error;
  /// the windowed driver aggregates it across engines first.
  std::string stuck_fiber_names() const;

  /// True when no fibers exist or all have finished.
  bool all_fibers_finished() const;

  // ---- Calls below are valid only from within a running fiber. ----

  /// Current fiber's virtual time (vclock + live measured slice).
  int64_t now_ns();

  /// Charge modeled compute cost to the current fiber.
  void advance_ns(int64_t dt_ns);

  /// Let other runnable fibers at the same virtual time execute.
  void yield();

  /// Block the current fiber until `wake_at_ns` virtual time.
  void sleep_until_ns(int64_t wake_at_ns);
  void sleep_for_ns(int64_t dt_ns) { sleep_until_ns(now_ns() + dt_ns); }

  /// Suspend the current fiber with no scheduled wakeup; a wait primitive
  /// must later call wake(). Used by ConditionVar et al.
  void suspend_current();

  /// Make `fiber` runnable no earlier than virtual time `t_ns` (it resumes
  /// at max(t_ns, its own vclock)). Callable from fibers or event callbacks.
  void wake(Fiber::Id fiber, int64_t t_ns);

  /// Like wake(), but a no-op returning false when the fiber is not
  /// blocked. Completion handlers (e.g. a fetch response requeueing its
  /// waiters) use this: a registered waiter may have been resumed through
  /// another path, or be busy running borrowed work, by the time the
  /// completion fires.
  bool try_wake(Fiber::Id fiber, int64_t t_ns);

  Fiber::Id current_fiber_id() const;
  const std::string& current_fiber_name() const;
  bool on_fiber() const { return current_ != nullptr; }

  /// Engine-global virtual clock: time of the most recently fired event.
  int64_t engine_now_ns() const { return engine_now_ns_; }

  const EngineConfig& config() const { return config_; }

  /// Engine running stats (events fired, slices executed) for tests.
  uint64_t events_fired() const { return events_fired_; }

 private:
  friend class Fiber;

  struct Event {
    int64_t t_ns;
    uint64_t seq;  // FIFO tie-break => deterministic ordering
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      return a.t_ns != b.t_ns ? a.t_ns > b.t_ns : a.seq > b.seq;
    }
  };

  void resume(Fiber* fiber, int64_t at_ns);
  /// Charge the measured wall time of the running slice to the current
  /// fiber's virtual clock and restart the slice timer.
  void finalize_slice();
  /// Finalize the running slice (charge measured time) and swap to engine.
  void switch_out(FiberState new_state);
  [[noreturn]] void fiber_exit();
  Fiber* fiber_by_id(Fiber::Id id) const;

  EngineConfig config_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> events_;
  uint64_t next_seq_ = 0;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  Fiber* current_ = nullptr;
  void* engine_sp_ = nullptr;  // the engine loop's stack while a fiber runs
  // Sanitizer bookkeeping for the engine's own (thread) stack: ASan's
  // fake-stack handle and the stack's bounds as reported by the last fiber
  // entry, and TSan's handle for the host thread that resumed the running
  // fiber. Unused outside those builds.
  void* asan_fake_stack_ = nullptr;
  const void* asan_engine_stack_bottom_ = nullptr;
  size_t asan_engine_stack_size_ = 0;
  void* tsan_engine_fiber_ = nullptr;
  int64_t engine_now_ns_ = 0;
  int64_t slice_wall_start_ns_ = 0;  // host steady_clock at slice start
                                     // (kMeasured only)
  uint64_t events_fired_ = 0;
  bool running_ = false;
  std::exception_ptr pending_error_;
};

/// Engine hosting the current fiber; null outside fibers.
Engine* current_engine();

// Free-function conveniences for code running on a fiber.
int64_t now_ns();
void advance_ns(int64_t dt_ns);
void yield();
void sleep_for_ns(int64_t dt_ns);

}  // namespace ppm::sim
