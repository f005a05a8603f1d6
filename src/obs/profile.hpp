// Phase-attributed host profiling: where do the *real* CPU cycles of a
// simulation go?
//
// The ROADMAP's zero-overhead item observed that the 2.4x engine win only
// bought ~1.2x end-to-end, and nothing in the repo could say why: virtual
// time is fully decomposed (msgtrace), but host time was one opaque
// run_wall_ns number. The Profiler splits it into a small phase taxonomy:
//
//   kEnginePop   scheduler popping the event queue (calendar/heap maintenance)
//   kCallback    executing event closures (deliveries, CQ postings)
//   kRankExec    rank user code on its fiber, incl. the context switch
//   kMatch       notification matching (UqIndex probes, HW-queue drains)
//   kTransfer    transfer plumbing (channel reservation, NIC/endpoint paths)
//   kAppCompute  application compute kernels (measured or charged)
//   kObs         the observability layer itself (msgtrace hooks, snapshots)
//
// Accounting is *self time* on a single current-phase chain: entering a
// scope flushes the elapsed ticks of the enclosing phase and switches to
// the new one; leaving restores the parent. Because the engine runs at most
// one context at any instant (see sim/engine.hpp), a single global chain
// with plain arithmetic is race-free — the "per-shard" accumulator is the
// one scheduler shard this engine has. Nested scopes therefore partition
// wall time exactly: sum(phase self-times) + unattributed == profiled wall.
//
// Reads are rdtsc on x86-64 (the TSC is invariant and core-synchronized on
// every machine this targets; a scope costs two register reads) and
// wallclock_ns() elsewhere. Tick->ns calibration comes from a (tick, wall)
// pair taken at start()/stop(); fractions need no calibration at all.
//
// The profiler never touches virtual time — runs are bit-identical with
// profiling on or off (asserted in tests/test_timeseries.cpp). A rank that
// *blocks* inside a scope hands control back to the scheduler with the
// scope still open; the scheduler's own scope transitions keep the chain
// consistent (ticks are always flushed to whatever phase is current), at
// worst misattributing the remainder of the blocked scope to kRankExec.
// Instrumented blocking sites are at most one scope deep under kRankExec,
// which bounds that misattribution to the post-resume tail of a match.
//
// This header is include-only for the hot path so the sim layer (which the
// obs *library* links against, not vice versa) can hold a Profiler* and
// open scopes without a link cycle; cold code (export, names) lives in
// profile.cpp inside narma_obs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/time.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace narma::obs {

class Registry;

enum class Phase : std::uint8_t {
  kEnginePop = 0,
  kCallback,
  kRankExec,
  kMatch,
  kTransfer,
  kAppCompute,
  kObs,
  kCount,
};

inline constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(Phase::kCount);

const char* to_string(Phase p);

class Profiler {
 public:
  struct Stat {
    std::uint64_t ticks = 0;
    std::uint64_t calls = 0;
  };

  static std::uint64_t now_ticks() {
#if defined(__x86_64__) || defined(_M_X64)
    return __rdtsc();
#else
    return wallclock_ns();
#endif
  }

  /// Arms the chain and takes the calibration anchor. Scopes opened while
  /// not running are no-ops, so layers can hold the pointer unconditionally.
  void start() {
    start_ticks_ = mark_ = now_ticks();
    start_wall_ns_ = wallclock_ns();
    running_ = true;
  }

  /// Flushes the tail into the current phase and takes the second
  /// calibration anchor. Idempotent.
  void stop() {
    if (!running_) return;
    flush(now_ticks());
    stop_ticks_ = mark_;
    stop_wall_ns_ = wallclock_ns();
    running_ = false;
  }

  bool running() const { return running_; }

  /// Switches the current phase, flushing the elapsed ticks to the phase
  /// being left. Returns the previous phase for the scope to restore.
  Phase switch_to(Phase ph) {
    flush(now_ticks());
    const Phase prev = cur_;
    cur_ = ph;
    ++stats_[static_cast<std::size_t>(ph)].calls;
    return prev;
  }

  /// Restores a parent phase (scope exit): flush, no call count.
  void restore(Phase ph) {
    flush(now_ticks());
    cur_ = ph;
  }

  // --- Results (valid after stop()) ----------------------------------------

  const Stat& stat(Phase p) const {
    return stats_[static_cast<std::size_t>(p)];
  }
  /// Ticks spent outside every scope. The engine attributes its own
  /// spawn/join and dispatch-loop bookkeeping to kEnginePop, so what lands
  /// here is World-level glue between runs.
  std::uint64_t unattributed_ticks() const {
    return stats_[kNumPhases].ticks;
  }
  std::uint64_t total_ticks() const { return stop_ticks_ - start_ticks_; }
  std::uint64_t total_wall_ns() const {
    return stop_wall_ns_ - start_wall_ns_;
  }

  /// Calibrated nanoseconds of one phase (0 ticks profiled -> 0).
  std::uint64_t phase_ns(Phase p) const { return to_ns_(stat(p).ticks); }
  std::uint64_t unattributed_ns() const {
    return to_ns_(unattributed_ticks());
  }

  /// Fraction of profiled wall time attributed to `p` (0 when nothing ran).
  double fraction(Phase p) const {
    return total_ticks() == 0
               ? 0.0
               : static_cast<double>(stat(p).ticks) /
                     static_cast<double>(total_ticks());
  }

  /// Exports phase times/calls as obs.phase_* gauges at rank 0, plus
  /// obs.profile_total_ns and obs.profile_unattributed_ns (profile.cpp).
  void export_to(Registry& reg, Time at) const;

 private:
  void flush(std::uint64_t t) {
    stats_[static_cast<std::size_t>(cur_)].ticks += t - mark_;
    mark_ = t;
  }

  std::uint64_t to_ns_(std::uint64_t ticks) const {
    const std::uint64_t tt = total_ticks();
    if (tt == 0) return 0;
    return static_cast<std::uint64_t>(
        static_cast<double>(ticks) * static_cast<double>(total_wall_ns()) /
        static_cast<double>(tt));
  }

  // stats_[kNumPhases] accumulates unattributed time (Phase::kCount is the
  // sentinel "no scope open" phase the chain starts and ends in).
  std::array<Stat, kNumPhases + 1> stats_{};
  Phase cur_ = Phase::kCount;
  std::uint64_t mark_ = 0;
  std::uint64_t start_ticks_ = 0;
  std::uint64_t stop_ticks_ = 0;
  std::uint64_t start_wall_ns_ = 0;
  std::uint64_t stop_wall_ns_ = 0;
  bool running_ = false;
};

/// RAII phase scope. A null or not-yet-started profiler makes construction
/// and destruction a single branch each — the disabled-path cost at every
/// instrumented site.
class PhaseScope {
 public:
  PhaseScope(Profiler* p, Phase ph)
      : p_(p && p->running() ? p : nullptr) {
    if (p_) prev_ = p_->switch_to(ph);
  }
  ~PhaseScope() {
    if (p_) p_->restore(prev_);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Profiler* p_;
  Phase prev_ = Phase::kCount;
};

}  // namespace narma::obs
