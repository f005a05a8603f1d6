// Fatal-path termination with telemetry flushing.
//
// NARMA aborts on violated invariants (see assert.hpp), but an abort must not
// silently discard the observability artifacts a run has accumulated: the
// NARMA_JSON bench sink and a World's run directory (metrics, journal,
// msgtrace, flight recorder) are written by code that never runs under
// std::abort. Components that own
// flushable state register a crash hook; every fatal path (NARMA_CHECK /
// NARMA_FATAL failures, fatal_error(), the engine's deadlock detector) runs
// the hooks exactly once before terminating, so a crashed run still leaves
// its diagnostics on disk.
//
// Hooks are plain function pointers with a context argument — no allocation
// on the termination path — and run in reverse registration order (innermost
// scope first). Re-entry is guarded: a hook that itself fails cannot recurse.
#pragma once

#include <string>

namespace narma {

using CrashHook = void (*)(void*);

/// Registers `fn(arg)` to run on any fatal termination. Duplicate (fn, arg)
/// pairs are allowed and run once each.
void register_crash_hook(CrashHook fn, void* arg);

/// Removes one previously registered (fn, arg) pair (no-op when absent).
/// Owners call this from their destructor so a hook never outlives its state.
void unregister_crash_hook(CrashHook fn, void* arg);

/// Runs all registered hooks once (reverse registration order). Safe to call
/// from any fatal path; re-entrant calls return immediately.
void run_crash_hooks() noexcept;

/// Prints `what`, flushes the crash hooks, and aborts. The single funnel for
/// runtime-detected fatal conditions outside the NARMA_CHECK macros.
[[noreturn]] void fatal_error(const std::string& what);

namespace detail {
/// Shared termination tail of fatal_error() and check_failed(): run the
/// crash hooks, then abort.
[[noreturn]] void fatal_exit() noexcept;
}  // namespace detail

}  // namespace narma
