#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>

#include "common/assert.hpp"

#if defined(NARMA_FIBER_UCONTEXT)
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define NARMA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NARMA_ASAN 1
#endif
#endif

#if defined(NARMA_ASAN)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     size_t* size_old);
}
#endif

namespace narma::sim {

namespace {

std::size_t page_size() {
  static const std::size_t p = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return p;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t p = page_size();
  return (bytes + p - 1) / p * p;
}

}  // namespace

#if !defined(NARMA_FIBER_UCONTEXT)

// ---------------------------------------------------------------------------
// Hand-rolled x86-64 System V context switch.
//
// narma_fiber_switch(void** save_sp, void* new_sp) saves the callee-saved
// register state (rbp, rbx, r12-r15, mxcsr, x87 control word) on the current
// stack, stores the resulting rsp through save_sp, installs new_sp, restores
// the same state from the new stack and returns — on the other context.
// Caller-saved registers need no help: from the compiler's point of view
// this is an ordinary opaque function call.
//
// Stack frame layout at a saved sp (growing downward):
//   sp + 56  return address (pushed by the call into narma_fiber_switch)
//   sp + 48  rbp
//   sp + 40  rbx
//   sp + 32  r12
//   sp + 24  r13
//   sp + 16  r14
//   sp +  8  r15
//   sp + 4   mxcsr   (32-bit)
//   sp + 0   x87 cw  (16-bit; 8 bytes reserved for both control words)
// ---------------------------------------------------------------------------
extern "C" void narma_fiber_switch(void** save_sp, void* new_sp);
extern "C" void narma_fiber_entry(Fiber* f);

asm(R"(
.text
.globl narma_fiber_switch
.hidden narma_fiber_switch
.type narma_fiber_switch, @function
.align 16
narma_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq  $8, %rsp
    stmxcsr 4(%rsp)
    fnstcw  (%rsp)
    movq  %rsp, (%rdi)
    movq  %rsi, %rsp
    fldcw   (%rsp)
    ldmxcsr 4(%rsp)
    addq  $8, %rsp
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
    ret
.size narma_fiber_switch, .-narma_fiber_switch

/* First activation lands here instead of returning into narma_fiber_switch.
   The fabricated frame put the Fiber* in the rbp slot; move it into the
   first-argument register, zero rbp to terminate unwinder frame chains, and
   call into C++. narma_fiber_entry never returns (it switches away for good
   from Fiber::run_entry), so fall into ud2 as a tripwire. */
.globl narma_fiber_trampoline
.hidden narma_fiber_trampoline
.type narma_fiber_trampoline, @function
.align 16
narma_fiber_trampoline:
    movq %rbp, %rdi
    xorl %ebp, %ebp
    call narma_fiber_entry
    ud2
.size narma_fiber_trampoline, .-narma_fiber_trampoline
)");

extern "C" void narma_fiber_trampoline();

extern "C" void narma_fiber_entry(Fiber* f) { fiber_entry_point(f); }

#else  // NARMA_FIBER_UCONTEXT

extern "C" void narma_fiber_entry_uctx(unsigned hi, unsigned lo) {
  auto* f = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  fiber_entry_point(f);
}

#endif

void fiber_entry_point(Fiber* f) { f->run_entry(); }

Fiber::Fiber(std::size_t stack_bytes, Entry entry, void* arg)
    : entry_(entry), arg_(arg) {
  if (stack_bytes < kMinStackBytes) stack_bytes = kMinStackBytes;
  stack_bytes_ = round_up_pages(stack_bytes);
  map_bytes_ = stack_bytes_ + page_size();  // + guard page at the low end

  // MAP_NORESERVE + demand paging keep RSS proportional to pages touched,
  // not to the configured stack size — essential for 4096+ fibers.
  void* base = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  NARMA_CHECK(base != MAP_FAILED) << "fiber: mmap of stack failed";
  NARMA_CHECK(::mprotect(base, page_size(), PROT_NONE) == 0)
      << "fiber: guard-page mprotect failed";
  map_base_ = base;

#if !defined(NARMA_FIBER_UCONTEXT)
  // Fabricate the initial frame narma_fiber_switch will "return" from.
  // The top of stack must be 16-byte aligned such that after the ret into
  // the trampoline rsp ≡ 0 (mod 16), so the trampoline's `call` leaves
  // rsp ≡ 8 (mod 16) on entry — the SysV ABI state at a function entry.
  auto top = reinterpret_cast<std::uintptr_t>(base) + map_bytes_;
  top &= ~static_cast<std::uintptr_t>(15);
  auto* frame = reinterpret_cast<void**>(top);
  *(--frame) = reinterpret_cast<void*>(&narma_fiber_trampoline);  // ret addr
  *(--frame) = this;     // rbp slot → first arg inside the trampoline
  *(--frame) = nullptr;  // rbx
  *(--frame) = nullptr;  // r12
  *(--frame) = nullptr;  // r13
  *(--frame) = nullptr;  // r14
  *(--frame) = nullptr;  // r15
  --frame;               // fpu control-word slot
  std::uint32_t mxcsr;
  std::uint16_t fcw;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  std::memcpy(reinterpret_cast<char*>(frame) + 4, &mxcsr, sizeof(mxcsr));
  std::memcpy(reinterpret_cast<char*>(frame), &fcw, sizeof(fcw));
  sp_ = frame;
#else
  auto* uc = new ucontext_t;
  auto* ret = new ucontext_t;
  std::memset(uc, 0, sizeof(*uc));
  std::memset(ret, 0, sizeof(*ret));
  NARMA_CHECK(::getcontext(uc) == 0) << "fiber: getcontext failed";
  uc->uc_stack.ss_sp = static_cast<char*>(base) + page_size();
  uc->uc_stack.ss_size = stack_bytes_;
  uc->uc_link = nullptr;
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(uc, reinterpret_cast<void (*)()>(&narma_fiber_entry_uctx), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
  uctx_ = uc;
  ret_uctx_ = ret;
#endif
}

Fiber::~Fiber() {
  // Destroying a live (started, unfinished) fiber would leak whatever its
  // stack owns; the engine only tears slots down after rank_main returned
  // or during fatal_exit, where leaks are moot.
#if defined(NARMA_FIBER_UCONTEXT)
  delete static_cast<ucontext_t*>(uctx_);
  delete static_cast<ucontext_t*>(ret_uctx_);
#endif
  if (map_base_ != nullptr) ::munmap(map_base_, map_bytes_);
}

void Fiber::resume() {
  NARMA_CHECK(!finished_) << "fiber: resume of a finished fiber";
  started_ = true;
#if defined(NARMA_ASAN)
  // Switching engine → fiber: save the engine context's fake stack and tell
  // ASan the bounds of the stack we are about to run on.
  __sanitizer_start_switch_fiber(&asan_resumer_fake_,
                                 static_cast<char*>(map_base_) + page_size(),
                                 stack_bytes_);
#endif
#if !defined(NARMA_FIBER_UCONTEXT)
  narma_fiber_switch(&resumer_sp_, sp_);
#else
  NARMA_CHECK(::swapcontext(static_cast<ucontext_t*>(ret_uctx_),
                            static_cast<ucontext_t*>(uctx_)) == 0)
      << "fiber: swapcontext failed";
#endif
#if defined(NARMA_ASAN)
  // Back on the engine context (the fiber yielded or finished).
  __sanitizer_finish_switch_fiber(asan_resumer_fake_, nullptr, nullptr);
#endif
}

void Fiber::yield() {
#if defined(NARMA_ASAN)
  __sanitizer_start_switch_fiber(&asan_self_fake_, asan_resumer_bottom_,
                                 asan_resumer_size_);
#endif
#if !defined(NARMA_FIBER_UCONTEXT)
  narma_fiber_switch(&sp_, resumer_sp_);
#else
  NARMA_CHECK(::swapcontext(static_cast<ucontext_t*>(uctx_),
                            static_cast<ucontext_t*>(ret_uctx_)) == 0)
      << "fiber: swapcontext failed";
#endif
#if defined(NARMA_ASAN)
  __sanitizer_finish_switch_fiber(asan_self_fake_, &asan_resumer_bottom_,
                                  &asan_resumer_size_);
#endif
}

void Fiber::run_entry() {
#if defined(NARMA_ASAN)
  // First activation: complete the switch the resumer started and learn the
  // resumer's stack bounds so yield() can hand them back to ASan.
  __sanitizer_finish_switch_fiber(nullptr, &asan_resumer_bottom_,
                                  &asan_resumer_size_);
#endif
  entry_(arg_);  // an escaping exception terminates, same as a thread
  finished_ = true;
#if defined(NARMA_ASAN)
  // Final switch-away: pass nullptr so ASan releases this fiber's fake
  // stack instead of expecting to come back.
  __sanitizer_start_switch_fiber(nullptr, asan_resumer_bottom_,
                                 asan_resumer_size_);
#endif
#if !defined(NARMA_FIBER_UCONTEXT)
  narma_fiber_switch(&sp_, resumer_sp_);
  __builtin_unreachable();  // a finished fiber is never resumed
#else
  NARMA_CHECK(::swapcontext(static_cast<ucontext_t*>(uctx_),
                            static_cast<ucontext_t*>(ret_uctx_)) == 0)
      << "fiber: swapcontext failed";
  __builtin_unreachable();
#endif
}

}  // namespace narma::sim
