// The fiber stack switch and its sanitizer annotations.
//
// ppm_sim_stack_switch (defined in sim/fiber.cpp) is the only way control
// moves between an engine and its fibers. It saves what the x86-64
// System V ABI makes callee-saved: rbx, rbp, r12-r15 and rsp, plus the
// MXCSR and the x87 control word, so a fiber's rounding mode stays its
// own. It saves nothing else: not the signal mask and not a CET shadow
// stack. It never enters the kernel.
//
// Sanitizers track one stack per OS thread and cannot see the switch on
// their own. AddressSanitizer needs every switch bracketed by
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber
// (github.com/google/sanitizers/issues/189) and a fresh stack unpoisoned;
// ThreadSanitizer needs a fiber handle per stack and a
// __tsan_switch_to_fiber before each switch. The wrappers below compile to
// nothing outside the matching sanitizer build.
#pragma once

#if !defined(__x86_64__) || !defined(__ELF__)
#error "sim fibers switch stacks with ppm_sim_stack_switch (src/sim/fiber.cpp), which is x86-64 System V ELF only: port that routine to this target"
#endif

#include <cstddef>

/// Store the current stack pointer (after saving the callee-saved state on
/// the current stack) in *save_sp, then load load_sp and restore the state
/// saved there. Returns when some later switch loads *save_sp again.
extern "C" void ppm_sim_stack_switch(void** save_sp, void* load_sp) noexcept;

#if defined(__SANITIZE_ADDRESS__)
#define PPM_ASAN_FIBERS 1
#elif defined(__SANITIZE_THREAD__)
#define PPM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PPM_ASAN_FIBERS 1
#elif __has_feature(thread_sanitizer)
#define PPM_TSAN_FIBERS 1
#endif
#endif

#ifdef PPM_ASAN_FIBERS

extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save,
                                    const void* stack_bottom,
                                    size_t stack_size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** stack_bottom_old,
                                     size_t* stack_size_old);
void __asan_unpoison_memory_region(const volatile void* addr, size_t size);
}

namespace ppm::sim {

/// Clear poison a recycled mapping may still carry from an earlier fiber's
/// frames; call before writing a new stack's entry frame.
inline void asan_unpoison_stack(void* bottom, size_t size) {
  __asan_unpoison_memory_region(bottom, size);
}

/// Call on the OLD stack, immediately before switching to a stack with the
/// given bounds. `save` stores the old stack's fake-stack handle; pass
/// nullptr when the old stack is exiting forever (fiber finished) so ASan
/// releases its fake frames before the real stack is unmapped.
inline void asan_start_switch(void** save, const void* bottom, size_t size) {
  __sanitizer_start_switch_fiber(save, bottom, size);
}

/// Call as the first action on the NEW stack. `save` is the handle stored
/// when this stack last switched away (nullptr on first entry). The out
/// params receive the bounds of the stack we came from.
inline void asan_finish_switch(void* save, const void** bottom_old,
                               size_t* size_old) {
  __sanitizer_finish_switch_fiber(save, bottom_old, size_old);
}

}  // namespace ppm::sim

#else

namespace ppm::sim {
inline void asan_unpoison_stack(void*, size_t) {}
inline void asan_start_switch(void**, const void*, size_t) {}
inline void asan_finish_switch(void*, const void**, size_t*) {}
}  // namespace ppm::sim

#endif

#ifdef PPM_TSAN_FIBERS

extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}

namespace ppm::sim {

/// TSan's handle for a new fiber stack; destroy it with the stack.
inline void* tsan_create_fiber() { return __tsan_create_fiber(0); }
inline void tsan_destroy_fiber(void* fiber) { __tsan_destroy_fiber(fiber); }
/// The handle of whatever runs now (a host thread's own stack included).
inline void* tsan_current_fiber() { return __tsan_get_current_fiber(); }
/// Call immediately before ppm_sim_stack_switch. Flags 0 make the switch
/// a happens-before edge, as it is: one engine runs one fiber at a time.
inline void tsan_switch_to_fiber(void* fiber) {
  __tsan_switch_to_fiber(fiber, 0);
}

}  // namespace ppm::sim

#else

namespace ppm::sim {
inline void* tsan_create_fiber() { return nullptr; }
inline void tsan_destroy_fiber(void*) {}
inline void* tsan_current_fiber() { return nullptr; }
inline void tsan_switch_to_fiber(void*) {}
}  // namespace ppm::sim

#endif
