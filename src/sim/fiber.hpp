// Stackful user-space fibers for the simulation engine.
//
// A Fiber is one cooperatively-scheduled execution context: a lazily
// committed, guard-paged stack plus the saved callee-saved register state of
// a suspended computation. The engine multiplexes every simulated rank onto
// the single engine thread with them, so a block/resume costs two in-process
// context switches (~tens of ns) and a rank's stack costs only the pages it
// touches — what makes 4096+ ranks practical (see DESIGN.md §8).
//
// Mechanics:
//
//  * The stack is an anonymous private mmap. Pages are committed by the
//    kernel only on first touch, so a 4096-rank world reserves gigabytes of
//    address space but its RSS grows only with the stack each rank actually
//    uses (typically a few pages). The lowest page is PROT_NONE: running off
//    the end of the stack faults deterministically instead of silently
//    corrupting a neighboring fiber (tests/test_sim_fibers.cpp has the
//    death test).
//  * On x86-64 the switch is ~30 instructions of assembly saving exactly the
//    System V callee-saved state (rbx, rbp, r12-r15, mxcsr, x87 cw) — the
//    glibc alternative, swapcontext(3), performs a rt_sigprocmask syscall on
//    every switch, which is precisely the overhead this class exists to
//    remove. Other POSIX targets fall back to ucontext(3); correctness is
//    identical, only switch cost differs.
//  * Under AddressSanitizer every switch is bracketed with the sanitizer
//    fiber annotations so ASan tracks the current stack bounds and fake
//    stacks correctly across contexts.
//
// Threading contract: all calls — construction, resume(), destruction —
// happen on the owning (engine) thread; yield() happens on the fiber itself.
// A Fiber never migrates between OS threads, so no fence or atomic is
// needed: the one-runnable-context invariant of the engine covers it.
#pragma once

#include <cstddef>
#include <cstdint>

// Pick the switch implementation. The hand-rolled path needs x86-64 SysV;
// everything else (aarch64, etc.) falls back to ucontext(3), which is
// correct but pays a rt_sigprocmask syscall per swapcontext on glibc.
// Decided here, not in fiber.cpp, because it changes Fiber's layout: every
// translation unit must see the same members.
#if !defined(NARMA_FIBER_UCONTEXT) && \
    !(defined(__x86_64__) && (defined(__linux__) || defined(__unix__)))
#define NARMA_FIBER_UCONTEXT 1
#endif

namespace narma::sim {

class Fiber {
 public:
  using Entry = void (*)(void* arg);

  /// Creates a suspended fiber that will run `entry(arg)` when first
  /// resumed. `stack_bytes` is rounded up to whole pages and reserved
  /// lazily; a guard page is added below it.
  Fiber(std::size_t stack_bytes, Entry entry, void* arg);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches from the caller (the engine thread) into the fiber. Returns
  /// when the fiber calls yield() or its entry function returns. Must not
  /// be called on a finished fiber.
  void resume();

  /// Switches from the fiber back to the context that resumed it. Must be
  /// called on the fiber itself.
  void yield();

  /// True once the entry function has returned; the fiber may not be
  /// resumed again.
  bool finished() const { return finished_; }

  /// Committed bytes usable as stack (excludes the guard page).
  std::size_t stack_bytes() const { return stack_bytes_; }

  /// Smallest stack the implementation accepts; requests below it are
  /// rounded up (one page of headroom above the ABI red zone is useless).
  static constexpr std::size_t kMinStackBytes = 16 * 1024;

 private:
  friend void fiber_entry_point(Fiber* f);
  [[noreturn]] void run_entry();

  void* sp_ = nullptr;        // fiber's saved stack pointer while suspended
  void* resumer_sp_ = nullptr;  // resumer's saved stack pointer while active
  Entry entry_;
  void* arg_;
  void* map_base_ = nullptr;  // mmap base (guard page lives here)
  std::size_t map_bytes_ = 0;
  std::size_t stack_bytes_ = 0;
  bool started_ = false;
  bool finished_ = false;

#if defined(NARMA_FIBER_UCONTEXT)
  void* uctx_ = nullptr;       // ucontext_t of the fiber (PIMPL, cold path)
  void* ret_uctx_ = nullptr;   // ucontext_t of the resumer
#endif

  // AddressSanitizer fake-stack handles, one per context (the value saved
  // by __sanitizer_start_switch_fiber when that context switches away).
  void* asan_self_fake_ = nullptr;
  void* asan_resumer_fake_ = nullptr;
  const void* asan_resumer_bottom_ = nullptr;
  std::size_t asan_resumer_size_ = 0;
};

}  // namespace narma::sim
