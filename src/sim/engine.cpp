#include "sim/engine.hpp"

#include <algorithm>

#include "obs/profile.hpp"

namespace narma::sim {

// The scheduler's per-rank record must stay a single cache line: the
// dispatch loop's park/wake/resume path reads and writes only these fields,
// and the cachesim mirror test (tests/test_sim_fibers.cpp) counts exactly
// one line per rank touched. Growing RankCtx past 64 bytes is a perf
// regression, not a build error — hence the hard assert.
static_assert(sizeof(RankCtx) == 64,
              "RankCtx scheduling record must fit one cache line");
static_assert(alignof(RankCtx) == 64,
              "RankCtx must be cache-line aligned (no line straddling)");

namespace {

// The context currently executing rank user code (see Engine::current()).
// A plain global, not a thread_local: every rank fiber shares the engine
// thread, and at any instant exactly one context can read it.
RankCtx* g_current_rank = nullptr;

}  // namespace

RankCtx* Engine::current() { return g_current_rank; }

// ---------------------------------------------------------------- Trigger --

void Trigger::notify(Engine& eng, Time t) {
  if (waiters_.empty()) return;
  // Swap out first: a woken rank that re-checks its predicate and re-waits
  // must register on a fresh list, not the one being iterated. wake() never
  // re-enters notify(), so scratch_ is not live across a nested call; the
  // two buffers ping-pong their capacity, so steady-state notification
  // performs no allocation.
  scratch_.swap(waiters_);
  for (int r : scratch_) eng.wake(r, t);
  scratch_.clear();
}

// ---------------------------------------------------------------- RankCtx --

int RankCtx::nranks() const { return engine_->nranks(); }

void RankCtx::drain() { engine_->execute_due(clock_); }

void RankCtx::yield_until(Time t, const char* label) {
  const Time c0 = clock_;
  advance_to(t);
  state_ = detail::RankState::kReady;
  resume_time_ = clock_;
  block_label_ = label;
  engine_->ready_push(id_, clock_);
  engine_->yield_to_engine(id_);
  blocked_ += clock_ - c0;
  drain();
}

void RankCtx::wait(Trigger& trg, const char* label) {
  // Register before yielding: between the caller's predicate check and this
  // registration no other simulation context can run, so no wakeup is lost.
  const Time c0 = clock_;
  trg.waiters_.push_back(id_);
  state_ = detail::RankState::kBlocked;
  resume_time_ = Engine::kNever;
  block_label_ = label;
  engine_->yield_to_engine(id_);
  blocked_ += clock_ - c0;
  drain();
}

void RankCtx::wait_deadline(Trigger& trg, Time deadline, const char* label) {
  NARMA_ASSERT(deadline >= clock_);
  const Time c0 = clock_;
  trg.waiters_.push_back(id_);
  state_ = detail::RankState::kBlocked;
  resume_time_ = deadline;
  block_label_ = label;
  // The timeout entry coexists with a possible wake(): whichever fires first
  // resumes the rank and bumps its generation; the loser becomes a stale
  // heap entry that Engine::run skips by its generation check. The trigger
  // registration is not unwound on timeout — a later notify then produces a
  // spurious wakeup, which every wait site tolerates by re-checking its
  // predicate.
  engine_->ready_push(id_, deadline);
  engine_->yield_to_engine(id_);
  blocked_ += clock_ - c0;
  drain();
}

// ----------------------------------------------------------------- Engine --

Engine::Engine(int nranks, SimParams params)
    : params_(params),
      nranks_(nranks),
      fibers_(static_cast<std::size_t>(nranks)),
      calendar_(params.calendar_buckets) {
  NARMA_CHECK(nranks >= 1) << "engine needs at least one rank";
  NARMA_CHECK(params.calendar_buckets >= 1);
  ranks_.reset(new RankCtx[static_cast<std::size_t>(nranks)]);
  for (int i = 0; i < nranks; ++i) {
    ranks_[static_cast<std::size_t>(i)].engine_ = this;
    ranks_[static_cast<std::size_t>(i)].id_ = i;
  }
  ready_.reserve(static_cast<std::size_t>(nranks));
}

void Engine::yield_to_engine(int rank_id) { fiber(rank_id).yield(); }

void Engine::resume_rank(RankCtx& c) {
  // The scope spans the context switch: rank user code runs inside it on
  // the fiber, so its ticks land in kRankExec unless the rank opens a
  // narrower scope (match, transfer, compute).
  obs::PhaseScope scope(profiler_, obs::Phase::kRankExec);
  c.advance_to(c.resume_time_);
  c.state_ = detail::RankState::kRunning;
  // Any other heap entry still naming this rank (e.g. the timeout half of a
  // wait_deadline whose trigger fired first) is now obsolete; the bump makes
  // it fail the generation check at pop.
  ++c.gen_;
  g_current_rank = &c;
  fiber(c.id_).resume();
  g_current_rank = nullptr;
}

void Engine::fiber_rank_body(int rank_id) {
  RankCtx& c = ranks_[static_cast<std::size_t>(rank_id)];
  (*rank_main_)(c);
  c.state_ = detail::RankState::kFinished;
  // Returning unwinds into Fiber::run_entry, which marks the fiber finished
  // and switches back into resume_rank on the engine context.
}

void Engine::ready_push(int rank_id, Time t) {
  const RankCtx& c = ranks_[static_cast<std::size_t>(rank_id)];
  ready_.push_back(
      ReadyEntry{t, static_cast<std::uint32_t>(rank_id), c.gen_});
  std::push_heap(ready_.begin(), ready_.end(), std::greater<ReadyEntry>{});
}

Engine::ReadyEntry Engine::ready_pop() {
  NARMA_ASSERT(!ready_.empty());
  std::pop_heap(ready_.begin(), ready_.end(), std::greater<ReadyEntry>{});
  const ReadyEntry e = ready_.back();
  ready_.pop_back();
  return e;
}

void Engine::wake(int rank_id, Time t) {
  RankCtx& c = ranks_[static_cast<std::size_t>(rank_id)];
  // Spurious notify on an already-ready or running rank is harmless; only
  // blocked ranks transition (and enter the ready heap).
  if (c.state_ != detail::RankState::kBlocked) return;
  c.state_ = detail::RankState::kReady;
  // A rank parked in wait_deadline() already holds a timeout (resume_time <
  // kNever); a notify stamped later than the deadline must not push the
  // resume past it — the rank wakes at whichever comes first.
  c.resume_time_ = std::min(c.resume_time_, std::max(c.clock_, t));
  ready_push(rank_id, c.resume_time_);
}

void Engine::run_one_event() {
  obs::PhaseScope pop_scope(profiler_, obs::Phase::kEnginePop);
  ++events_executed_;
  pop_depth_hist_.record(calendar_.size());
  CalEvent ev = calendar_.pop();
  obs::PhaseScope cb_scope(profiler_, obs::Phase::kCallback);
  ev.fn();
}

void Engine::execute_due(Time horizon) {
  // Event handlers may post new events at or before the horizon; the loop
  // re-checks the queue front each iteration.
  while (!calendar_.empty() && calendar_.top_time() <= horizon)
    run_one_event();
}

void Engine::run(const std::function<void(RankCtx&)>& rank_main) {
  NARMA_CHECK(!running_) << "Engine::run may only be called once";
  running_ = true;
  rank_main_ = &rank_main;

  {
    // Execution-context spawn is engine scheduling machinery; on short runs
    // it is a fixed cost that would otherwise dominate the unattributed
    // remainder of the profile.
    obs::PhaseScope spawn_scope(profiler_, obs::Phase::kEnginePop);
    for (int i = 0; i < nranks_; ++i) {
      RankCtx& c = ranks_[static_cast<std::size_t>(i)];
      c.state_ = detail::RankState::kReady;
      c.resume_time_ = 0;
      ready_push(i, 0);
      // The fiber stays suspended until its first resume from the dispatch
      // loop; construction only reserves (not commits) the stack.
      fibers_[static_cast<std::size_t>(i)] = std::make_unique<Fiber>(
          params_.stack_bytes,
          +[](void* arg) {
            auto* ctx = static_cast<RankCtx*>(arg);
            ctx->engine_->fiber_rank_body(ctx->id_);
          },
          &c);
    }
  }

  const std::uint64_t wall0 = wallclock_ns();
  int unfinished = nranks_;
  while (unfinished > 0) {
    // Dispatch bookkeeping (probe arming, ready-heap pops, stale-entry
    // checks) is engine-pop work; the nested scopes in run_one_event and
    // resume_rank carve their own phases out of this one, so only the
    // loop's self time lands here.
    obs::PhaseScope sched_scope(profiler_, obs::Phase::kEnginePop);
    const bool have_rank = !ready_.empty();
    // Flight-recorder boundary: fire the probe for every boundary at or
    // before the next dispatch time — the snapshot then reflects exactly
    // the updates that happened before the boundary (events and ranks are
    // dispatched in deterministic (time, seq) order, so this point is
    // reproducible run to run). One compare when disarmed.
    if (probe_due_ != kNever) {
      const Time ev_t = calendar_.empty() ? kNever : calendar_.top_time();
      const Time rk_t = have_rank ? ready_.front().t : kNever;
      const Time t_next = std::min(ev_t, rk_t);
      while (probe_due_ != kNever && t_next != kNever &&
             probe_due_ <= t_next)
        probe_due_ = probe_(probe_due_, t_next);
    }
    if (!calendar_.empty() &&
        (!have_rank || calendar_.top_time() <= ready_.front().t)) {
      // Hardware events run before any rank that would resume at the same
      // instant, so a resuming rank observes everything <= its clock.
      run_one_event();
      continue;
    }

    if (!have_rank) deadlock_dump();

    const ReadyEntry e = ready_pop();
    RankCtx& c = ranks_[e.id];
    // A rank parked in wait_deadline() can own two heap entries: the
    // timeout and, if the trigger fired first, the wake. Resuming bumps the
    // rank's generation, so whichever entry pops second no longer matches
    // and is dropped here — no heap rebuild, one counter tick.
    if (e.gen != c.gen_) {
      ++stale_heap_skips_;
      continue;
    }
    resume_rank(c);
    if (c.state_ == detail::RankState::kFinished) --unfinished;
  }
  run_wall_ns_ += wallclock_ns() - wall0;
  rank_main_ = nullptr;
}

void Engine::deadlock_dump() {
  std::fprintf(stderr,
               "narma: simulation deadlock — no ready rank, no pending "
               "event. Rank states:\n");
  for (int i = 0; i < nranks_; ++i) {
    const auto& c = ranks_[static_cast<std::size_t>(i)];
    const char* st = "?";
    switch (c.state_) {
      case detail::RankState::kReady: st = "ready"; break;
      case detail::RankState::kRunning: st = "running"; break;
      case detail::RankState::kBlocked: st = "blocked"; break;
      case detail::RankState::kFinished: st = "finished"; break;
    }
    std::fprintf(stderr, "  rank %d: %-8s clock=%.3fus  at: %s\n", i, st,
                 to_us(c.clock_), c.block_label_);
  }
  std::fflush(stderr);
  // Flush registered telemetry sinks (bench JSON, crash dumps) before dying
  // so the evidence of *what* deadlocked survives the abort.
  narma::detail::fatal_exit();
}

}  // namespace narma::sim
