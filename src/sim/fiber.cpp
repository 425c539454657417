#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>

#include "sim/engine.hpp"
#include "sim/stack_switch.hpp"
#include "util/error.hpp"

// void ppm_sim_stack_switch(void** save_sp, void* load_sp)
//   rdi = save_sp, rsi = load_sp. Pushes the callee-saved integer registers,
//   then an 8-byte slot holding MXCSR (low 4 bytes) and the x87 control
//   word (next 2), stores rsp, loads the other side's, and undoes the same
//   layout there. Fiber::Fiber builds that layout by hand for a new stack.
asm(R"(
  .pushsection .text
  .globl ppm_sim_stack_switch
  .type ppm_sim_stack_switch, @function
  .p2align 4
ppm_sim_stack_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size ppm_sim_stack_switch, .-ppm_sim_stack_switch
  .popsection
)");

namespace ppm::sim {

namespace {
size_t page_size() {
  static const size_t kPage = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return kPage;
}

size_t round_up(size_t n, size_t align) {
  return (n + align - 1) / align * align;
}
}  // namespace

Fiber::Fiber(Engine* engine, Id id, std::string name,
             std::function<void()> entry, size_t stack_bytes)
    : engine_(engine), id_(id), name_(std::move(name)),
      entry_(std::move(entry)) {
  stack_bytes_ = round_up(stack_bytes, page_size());
  const size_t map_bytes = stack_bytes_ + page_size();  // +1 guard page
  void* mem = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  PPM_CHECK(mem != MAP_FAILED, "fiber stack mmap of %zu bytes failed",
            map_bytes);
  // Stacks grow downward: protect the lowest page so overflow faults loudly
  // instead of corrupting a neighboring fiber's stack.
  PPM_CHECK(::mprotect(mem, page_size(), PROT_NONE) == 0,
            "fiber guard page mprotect failed");
  stack_bottom_ = static_cast<char*>(mem) + page_size();
  asan_unpoison_stack(stack_bottom_, stack_bytes_);
  tsan_fiber_ = tsan_create_fiber();

  // Entry frame, lowest address first, as ppm_sim_stack_switch restores
  // it: the FP control slot (the creator's MXCSR and x87 control word, so
  // a fiber starts in its creator's rounding mode), zeroed r15 r14 r13 r12
  // rbx rbp, the address its `ret` jumps to, and a null return address for
  // trampoline so unwinders stop there. The stack top is page aligned, so
  // trampoline starts with rsp = 8 (mod 16), as after a call.
  uint32_t mxcsr = 0;
  uint16_t x87_cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_cw));
  auto* top = reinterpret_cast<uint64_t*>(stack_bottom_ + stack_bytes_);
  uint64_t* frame = top - 9;
  std::fill(frame, top, uint64_t{0});
  frame[0] = mxcsr | uint64_t{x87_cw} << 32;
  top[-2] = reinterpret_cast<uint64_t>(&Fiber::trampoline);
  sp_ = frame;
}

Fiber::~Fiber() {
  tsan_destroy_fiber(tsan_fiber_);
  ::munmap(stack_bottom_ - page_size(), stack_bytes_ + page_size());
}

void Fiber::trampoline() {
  // The engine sets current_ before switching in, so the running fiber
  // finds itself through its engine (Fiber is a friend of Engine).
  Engine* engine = current_engine();
  Fiber* self = engine->current_;
  // First gain of control on this stack: no fake stack to restore, and the
  // stack we came from is the engine's — record its bounds so switch_out
  // can annotate the reverse switch.
  asan_finish_switch(nullptr, &engine->asan_engine_stack_bottom_,
                     &engine->asan_engine_stack_size_);
  try {
    self->entry_();
  } catch (...) {
    self->error_ = std::current_exception();
  }
  engine->fiber_exit();
}

}  // namespace ppm::sim
