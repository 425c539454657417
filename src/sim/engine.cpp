#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "sim/stack_switch.hpp"
#include "util/error.hpp"

namespace ppm::sim {

namespace {
thread_local Engine* g_current_engine = nullptr;

int64_t host_steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Engine* current_engine() { return g_current_engine; }

int64_t now_ns() {
  PPM_CHECK(g_current_engine != nullptr, "now_ns() called outside a fiber");
  return g_current_engine->now_ns();
}

void advance_ns(int64_t dt_ns) {
  PPM_CHECK(g_current_engine != nullptr,
            "advance_ns() called outside a fiber");
  g_current_engine->advance_ns(dt_ns);
}

void yield() {
  PPM_CHECK(g_current_engine != nullptr, "yield() called outside a fiber");
  g_current_engine->yield();
}

void sleep_for_ns(int64_t dt_ns) {
  PPM_CHECK(g_current_engine != nullptr,
            "sleep_for_ns() called outside a fiber");
  g_current_engine->sleep_for_ns(dt_ns);
}

Engine::Engine(EngineConfig config) : config_(config) {}

Engine::~Engine() = default;

Fiber::Id Engine::spawn(std::string name, std::function<void()> entry,
                        int64_t start_ns, size_t stack_bytes) {
  PPM_CHECK(!name.empty(), "fiber needs a name (used in diagnostics)");
  if (stack_bytes == 0) stack_bytes = config_.default_stack_bytes;
  const auto id = static_cast<Fiber::Id>(fibers_.size());
  fibers_.push_back(std::make_unique<Fiber>(this, id, std::move(name),
                                            std::move(entry), stack_bytes));
  Fiber* fiber = fibers_.back().get();
  fiber->vclock_ns_ = start_ns;
  at(start_ns, [this, fiber] {
    if (fiber->state_ == FiberState::kRunnable) {
      resume(fiber, engine_now_ns_);
    }
  });
  return id;
}

void Engine::at(int64_t t_ns, std::function<void()> fn) {
  events_.push(Event{t_ns, next_seq_++, std::move(fn)});
}

void Engine::run() {
  run_until(std::numeric_limits<int64_t>::max());
  // With no events left, any non-finished fiber is deadlocked.
  const std::string stuck = stuck_fiber_names();
  PPM_CHECK(stuck.empty(), "simulation deadlock; blocked fibers: %s",
            stuck.c_str());
}

void Engine::run_until(int64_t horizon_ns) {
  PPM_CHECK(!running_, "Engine::run() is not reentrant");
  running_ = true;
  g_current_engine = this;
  while (!events_.empty() && events_.top().t_ns < horizon_ns) {
    // priority_queue::top() is const; move out via const_cast, which is safe
    // because we pop immediately after.
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    engine_now_ns_ = std::max(engine_now_ns_, ev.t_ns);
    ++events_fired_;
    ev.fn();
    if (pending_error_) {
      running_ = false;
      g_current_engine = nullptr;
      auto err = pending_error_;
      pending_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
  running_ = false;
  g_current_engine = nullptr;
}

int64_t Engine::next_event_ns() const {
  return events_.empty() ? std::numeric_limits<int64_t>::max()
                         : events_.top().t_ns;
}

std::string Engine::stuck_fiber_names() const {
  std::string stuck;
  for (const auto& f : fibers_) {
    if (f->state_ != FiberState::kFinished) {
      stuck += f->name();
      stuck += ' ';
    }
  }
  return stuck;
}

bool Engine::all_fibers_finished() const {
  return std::all_of(fibers_.begin(), fibers_.end(), [](const auto& f) {
    return f->state_ == FiberState::kFinished;
  });
}

int64_t Engine::now_ns() {
  PPM_CHECK(current_ != nullptr, "now_ns() requires a running fiber");
  int64_t t = current_->vclock_ns_;
  if (config_.calibration == CalibrationMode::kMeasured) {
    const int64_t wall = host_steady_ns() - slice_wall_start_ns_;
    t += static_cast<int64_t>(static_cast<double>(wall) *
                              config_.calibration_factor);
  }
  return t;
}

void Engine::advance_ns(int64_t dt_ns) {
  PPM_CHECK(current_ != nullptr, "advance_ns() requires a running fiber");
  PPM_CHECK(dt_ns >= 0, "cannot advance time backwards (dt=%lld)",
            static_cast<long long>(dt_ns));
  // Sub-microsecond charges (per-access cost models) skip the scheduling
  // point: the causality window they could reorder within is negligible,
  // and hot paths call this millions of times.
  if (dt_ns < kSmallAdvanceNs) {
    current_->vclock_ns_ += dt_ns;
    return;
  }
  finalize_slice();
  const int64_t target = current_->vclock_ns_ + dt_ns;
  // Conservative discrete-event rule: if anything else is scheduled before
  // this fiber's new clock, let it run first — otherwise a fiber could
  // mutate shared state "from the future" within one host slice.
  if (!events_.empty() && events_.top().t_ns < target) {
    Fiber* self = current_;
    at(target, [this, self, target] { resume(self, target); });
    switch_out(FiberState::kBlocked);
  } else {
    current_->vclock_ns_ = target;
  }
}

void Engine::yield() {
  PPM_CHECK(current_ != nullptr, "yield() requires a running fiber");
  Fiber* self = current_;
  // Charge the measured slice first so the reschedule lands at the fiber's
  // true post-slice virtual time.
  finalize_slice();
  at(self->vclock_ns_, [this, self] { resume(self, self->vclock_ns_); });
  switch_out(FiberState::kRunnable);
}

void Engine::sleep_until_ns(int64_t wake_at_ns) {
  PPM_CHECK(current_ != nullptr, "sleep requires a running fiber");
  Fiber* self = current_;
  at(wake_at_ns, [this, self, wake_at_ns] { resume(self, wake_at_ns); });
  switch_out(FiberState::kBlocked);
}

void Engine::suspend_current() {
  PPM_CHECK(current_ != nullptr, "suspend requires a running fiber");
  switch_out(FiberState::kBlocked);
}

void Engine::wake(Fiber::Id fiber_id, int64_t t_ns) {
  Fiber* fiber = fiber_by_id(fiber_id);
  PPM_CHECK(fiber != nullptr, "wake of unknown fiber %u", fiber_id);
  PPM_CHECK(fiber->state_ == FiberState::kBlocked,
            "wake of fiber '%s' which is not blocked", fiber->name().c_str());
  fiber->state_ = FiberState::kRunnable;
  at(t_ns, [this, fiber, t_ns] {
    if (fiber->state_ == FiberState::kRunnable) resume(fiber, t_ns);
  });
}

bool Engine::try_wake(Fiber::Id fiber_id, int64_t t_ns) {
  Fiber* fiber = fiber_by_id(fiber_id);
  PPM_CHECK(fiber != nullptr, "try_wake of unknown fiber %u", fiber_id);
  if (fiber->state_ != FiberState::kBlocked) return false;
  wake(fiber_id, t_ns);
  return true;
}

Fiber::Id Engine::current_fiber_id() const {
  PPM_CHECK(current_ != nullptr, "no fiber is running");
  return current_->id();
}

const std::string& Engine::current_fiber_name() const {
  PPM_CHECK(current_ != nullptr, "no fiber is running");
  return current_->name();
}

void Engine::resume(Fiber* fiber, int64_t at_ns) {
  PPM_CHECK(current_ == nullptr,
            "resume must be called from the engine loop, not a fiber");
  if (fiber->state_ == FiberState::kFinished) return;
  fiber->state_ = FiberState::kRunning;
  // A fiber never resumes earlier than its own clock: a message that arrives
  // while the receiver is still "busy" is seen when the receiver is free.
  fiber->vclock_ns_ = std::max(fiber->vclock_ns_, at_ns);
  current_ = fiber;
  if (config_.calibration == CalibrationMode::kMeasured) {
    slice_wall_start_ns_ = host_steady_ns();
  }
  asan_start_switch(&asan_fake_stack_, fiber->stack_bottom_,
                    fiber->stack_bytes_);
  // Engines migrate between pool threads, so the host side's TSan handle
  // is taken afresh on every resume.
  tsan_engine_fiber_ = tsan_current_fiber();
  tsan_switch_to_fiber(fiber->tsan_fiber_);
  ppm_sim_stack_switch(&engine_sp_, fiber->sp_);
  asan_finish_switch(asan_fake_stack_, nullptr, nullptr);
  current_ = nullptr;
  if (fiber->state_ == FiberState::kFinished && fiber->error_ &&
      !pending_error_) {
    pending_error_ = fiber->error_;
    fiber->error_ = nullptr;
  }
}

void Engine::finalize_slice() {
  if (config_.calibration == CalibrationMode::kMeasured) {
    const int64_t wall_now = host_steady_ns();
    const int64_t wall = wall_now - slice_wall_start_ns_;
    current_->vclock_ns_ += static_cast<int64_t>(
        static_cast<double>(wall) * config_.calibration_factor);
    slice_wall_start_ns_ = wall_now;
  }
}

void Engine::switch_out(FiberState new_state) {
  Fiber* self = current_;
  finalize_slice();
  self->state_ = new_state;
  // A finished fiber never runs again: hand ASan a null save slot so it
  // releases the fake stack before ~Fiber munmaps the real one.
  asan_start_switch(
      new_state == FiberState::kFinished ? nullptr : &self->asan_fake_stack_,
      asan_engine_stack_bottom_, asan_engine_stack_size_);
  tsan_switch_to_fiber(tsan_engine_fiber_);
  ppm_sim_stack_switch(&self->sp_, engine_sp_);
  // Re-record the host-side stack bounds on every resume: under the
  // windowed driver the engine may run on a different pool thread (with a
  // different host stack) each window.
  asan_finish_switch(self->asan_fake_stack_, &asan_engine_stack_bottom_,
                     &asan_engine_stack_size_);
  // Resumed: the engine restored current_ = self and restarted the slice
  // timer; vclock was advanced to the resume time by resume().
}

void Engine::fiber_exit() {
  Fiber* self = current_;
  switch_out(FiberState::kFinished);
  // Unreachable: a finished fiber is never resumed.
  (void)self;
  std::terminate();
}

Fiber* Engine::fiber_by_id(Fiber::Id id) const {
  return id < fibers_.size() ? fibers_[id].get() : nullptr;
}

}  // namespace ppm::sim
