// Cooperative fibers on guarded mmap'd stacks.
//
// Each simulated hardware core runs application code on one fiber. Fibers
// are scheduled exclusively by sim::Engine (single OS thread), which is what
// makes the whole cluster simulation deterministic. Control moves by a
// register-only stack switch (sim/stack_switch.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>

namespace ppm::sim {

class Engine;

enum class FiberState : uint8_t {
  kRunnable,  // created or woken, waiting for the engine to resume it
  kRunning,   // currently executing (at most one fiber at a time)
  kBlocked,   // suspended on a wait primitive or sleep
  kFinished,  // entry function returned (or threw)
};

/// A cooperatively scheduled execution context with its own guarded stack.
/// Construction does not start execution; the Engine resumes it.
class Fiber {
 public:
  using Id = uint32_t;

  Fiber(Engine* engine, Id id, std::string name, std::function<void()> entry,
        size_t stack_bytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  Id id() const { return id_; }
  const std::string& name() const { return name_; }
  FiberState state() const { return state_; }

  /// Virtual clock of this fiber, nanoseconds. Only meaningful between
  /// slices; while running, Engine::now_ns() folds in the live slice.
  int64_t vclock_ns() const { return vclock_ns_; }

 private:
  friend class Engine;

  static void trampoline();

  Engine* engine_;
  Id id_;
  std::string name_;
  std::function<void()> entry_;
  FiberState state_ = FiberState::kRunnable;
  int64_t vclock_ns_ = 0;

  void* sp_ = nullptr;             // saved stack pointer while switched out
  char* stack_bottom_ = nullptr;   // lowest usable byte; the guard page is
                                   // the page below it
  size_t stack_bytes_ = 0;         // usable stack size
  // Sanitizer handles (sim/stack_switch.hpp), null outside those builds:
  // ASan's fake-stack handle and TSan's fiber.
  void* asan_fake_stack_ = nullptr;
  void* tsan_fiber_ = nullptr;
  std::exception_ptr error_;  // set if entry_ threw
};

}  // namespace ppm::sim
