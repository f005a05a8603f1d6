// Lightweight runtime checking for NARMA.
//
// NARMA_CHECK   — always-on invariant check; aborts with a diagnostic.
// NARMA_ASSERT  — debug-only check (compiled out when NDEBUG is defined).
// NARMA_FATAL   — unconditional failure with a formatted message.
//
// These abort rather than throw: NARMA models an HPC communication runtime
// where a violated invariant means the simulation state is unrecoverable, and
// aborting from a cooperative rank fiber is safe (no partially-unwound locks
// are shared across ranks).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace narma::detail {

// Defined in common/fatal.cpp: flushes registered crash hooks (bench sink,
// metrics dumps, tracers) before aborting, so a failed check still leaves
// telemetry on disk.
[[noreturn]] void fatal_exit() noexcept;

[[noreturn]] inline void check_failed(const char* kind, const char* expr,
                                      const char* file, int line,
                                      const std::string& msg) {
  std::fprintf(stderr, "narma: %s failed: %s\n  at %s:%d\n", kind, expr, file,
               line);
  if (!msg.empty()) std::fprintf(stderr, "  %s\n", msg.c_str());
  std::fflush(stderr);
  fatal_exit();
}

// Builds the optional streamed message of NARMA_CHECK(cond) << "detail".
class CheckStream {
 public:
  CheckStream(const char* kind, const char* expr, const char* file, int line)
      : kind_(kind), expr_(expr), file_(file), line_(line) {}
  [[noreturn]] ~CheckStream() {
    check_failed(kind_, expr_, file_, line_, os_.str());
  }
  template <class T>
  CheckStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  const char* kind_;
  const char* expr_;
  const char* file_;
  int line_;
  std::ostringstream os_;
};

}  // namespace narma::detail

#define NARMA_CHECK(cond)                                                  \
  if (cond) {                                                              \
  } else                                                                   \
    ::narma::detail::CheckStream("NARMA_CHECK", #cond, __FILE__, __LINE__)

#define NARMA_FATAL(what)                                               \
  ::narma::detail::CheckStream("NARMA_FATAL", what, __FILE__, __LINE__)

#ifdef NDEBUG
#define NARMA_ASSERT(cond) \
  if (true) {              \
  } else                   \
    ::narma::detail::CheckStream("", #cond, __FILE__, __LINE__)
#else
#define NARMA_ASSERT(cond) NARMA_CHECK(cond)
#endif
