// Deterministic discrete-event engine with cooperatively scheduled ranks.
//
// NARMA simulates a distributed-memory machine inside one process. Each
// simulated MPI-like *rank* runs user code on its own stackful user-space
// fiber, multiplexed on the engine thread (sim/fiber.hpp), and the engine
// enforces that **at most one context is runnable at any instant**.
// Consequences:
//
//  * No data races by construction — every access to engine or fabric state
//    happens with exactly one active context; fiber switches are plain
//    in-thread control transfer.
//  * Deterministic execution — events are ordered by (virtual time, issue
//    sequence number) and ready ranks by (resume time, rank id); the golden
//    schedule hashes (tests/test_transport_backends.cpp) pin the result.
//  * Clean compute measurement even on a single-core host — when a rank
//    measures a real compute kernel, no other simulation context competes
//    for the CPU.
//
// A block/resume costs two in-process context switches, and a rank's stack
// costs only the pages it touches — which is what lets one core carry
// 4096+ ranks (see DESIGN.md §8 and bench/scale_sweep.cpp).
//
// Virtual time model (conservative, LogGOPSim-style): each rank owns a
// virtual clock that advances through explicit charges (`advance`) and
// through blocking. Hardware actions (message deliveries, completion-queue
// postings) are *events* scheduled on a global calendar queue of pooled
// InlineFn closures (event_queue.hpp). The causality invariant is: before a
// rank observes any shared simulation state at its local clock c, all events
// with time <= c have executed. Ranks uphold it by calling `drain()` at
// every observation point (the communication layers do this internally).
//
// Scheduling is O(log n) in the rank count: ready ranks sit in a binary
// min-heap on (resume_time, id), pushed at the three transition sites into
// kReady (initial start, Engine::wake, RankCtx::yield_until) and popped
// when resumed. A rank can own two live heap entries at once (a
// wait_deadline timeout plus the wake that beat it); entries carry the
// rank's generation counter at push time and a pop whose generation no
// longer matches is skipped in O(log n) (counted in stale_heap_skips())
// instead of triggering any heap surgery.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/params.hpp"

namespace narma::obs {
class Profiler;
}

namespace narma::sim {

class Engine;
class RankCtx;

/// Virtual-time condition variable. Ranks block on it via RankCtx::wait();
/// event handlers (or other ranks) call notify() to wake all current
/// waiters. As with a condition variable, users re-check their predicate in
/// a loop around wait(); spurious wakeups are allowed.
class Trigger {
 public:
  /// Wakes every rank currently waiting; each resumes no earlier than
  /// virtual time `t` (and never earlier than its own clock).
  void notify(Engine& eng, Time t);

  bool has_waiters() const { return !waiters_.empty(); }

 private:
  friend class RankCtx;
  std::vector<int> waiters_;  // rank ids, in wait order
  // Scratch for notify(): the waiter list is swapped out before waking (a
  // woken rank that later re-waits must land on a fresh list), and the two
  // buffers ping-pong so steady-state notification never allocates.
  std::vector<int> scratch_;
};

namespace detail {

enum class RankState : std::uint8_t {
  kReady,     // can run; resume_time says when
  kRunning,   // currently executing user code
  kBlocked,   // waiting on a Trigger
  kFinished,  // rank main returned
};

}  // namespace detail

/// Per-rank execution context. The communication layers wrap this; user code
/// normally sees the narma::Rank facade instead.
///
/// RankCtx doubles as the scheduler's hot per-rank record: every field the
/// dispatch loop reads or writes when parking, waking, or resuming a rank
/// (clock, resume time, state, generation, id) is packed into this one
/// 64-byte cache-line-aligned struct, so a scheduling decision touches
/// exactly one line per rank (verified against the cachesim model in
/// tests/test_sim_fibers.cpp).
class alignas(64) RankCtx {
 public:
  RankCtx(const RankCtx&) = delete;
  RankCtx& operator=(const RankCtx&) = delete;

  int id() const { return id_; }
  int nranks() const;
  Engine& engine() { return *engine_; }

  /// This rank's virtual clock.
  Time now() const { return clock_; }

  /// Charges local (compute or software-overhead) time.
  void advance(Time dt) { clock_ += dt; }
  void advance_to(Time t) {
    if (t > clock_) clock_ = t;
  }

  /// Runs `fn` on the real CPU, measures its wall time, and charges it to
  /// virtual time (scaled by `scale`). Valid because only one simulation
  /// context runs at a time.
  template <class F>
  void charge_measured(F&& fn, double scale = 1.0) {
    const std::uint64_t t0 = wallclock_ns();
    fn();
    const std::uint64_t t1 = wallclock_ns();
    advance(ns(static_cast<double>(t1 - t0) * scale));
  }

  /// Executes all pending events with time <= now(). Communication layers
  /// call this before observing shared state.
  void drain();

  /// Yields to the engine until virtual time `t` (a modeled sleep or poll
  /// backoff). Other ranks and events run in between.
  void yield_until(Time t, const char* label = "yield");

  /// Blocks until `trg` is notified. Re-check your predicate in a loop.
  void wait(Trigger& trg, const char* label);

  /// Blocks until `trg` is notified OR virtual time `deadline` arrives,
  /// whichever is earlier. Re-check your predicate in a loop; wakeups can
  /// be spurious (the trigger registration persists past a timeout).
  /// Communication layers use this when an inbound queue already holds an
  /// entry stamped in this rank's future (see Nic::next_pending_time): the
  /// delivery event has executed, so its notify can no longer be awaited,
  /// but an unrelated earlier notify must still wake the rank on time.
  void wait_deadline(Trigger& trg, Time deadline, const char* label);

  /// Virtual time this rank has spent blocked or sleeping (wait /
  /// yield_until), i.e. clock advances not caused by explicit charges.
  /// busy = now() - blocked_time(); the metrics layer exports both.
  Time blocked_time() const { return blocked_; }

  /// One pointer of rank-scoped user storage, carried on the hot record so
  /// a lookup through Engine::current() stays within the same cache line.
  /// The foMPI compatibility layer keeps its bound narma::Rank here (a
  /// thread_local cannot distinguish ranks once they share the engine
  /// thread as fibers).
  void* user_data() const { return user_data_; }
  void set_user_data(void* p) { user_data_ = p; }

 private:
  friend class Engine;
  friend class Trigger;

  RankCtx() = default;  // engine-internal; wired up by Engine's constructor

  // Hot scheduling record — one 64-byte cache line, asserted in engine.cpp.
  Engine* engine_ = nullptr;        // +0
  Time clock_ = 0;                  // +8
  Time resume_time_ = 0;            // +16  when to resume (kNever: no timeout)
  Time blocked_ = 0;                // +24
  const char* block_label_ = "";    // +32  diagnostic for deadlock dumps
  void* user_data_ = nullptr;       // +40
  std::int32_t id_ = -1;            // +48
  std::uint32_t gen_ = 0;           // +52  bumped on resume; stale-entry check
  detail::RankState state_ = detail::RankState::kReady;  // +56
};

/// The discrete-event engine. Owns the event queue and the rank contexts.
class Engine {
 public:
  explicit Engine(int nranks, SimParams params = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs `rank_main` on every rank to completion. Blocking; must be called
  /// exactly once per Engine.
  void run(const std::function<void(RankCtx&)>& rank_main);

  /// Schedules `fn` to execute at virtual time `t`. Callable from rank
  /// contexts and from event handlers. The closure is stored inline (or in
  /// the slab EventPool when oversized) — no per-event heap allocation.
  template <class F>
  void post(Time t, F&& fn) {
    calendar_.push(t, next_seq_++, InlineFn(std::forward<F>(fn), &pool_));
    note_push();
  }

  /// Schedules several closures at the *same* timestamp with consecutive
  /// sequence numbers; they execute in argument order. The NIC delivery
  /// paths use this where one hardware action completes multiple parties
  /// at one instant (e.g. shm-notification delivery + local completion);
  /// the calendar queue locates the target segment once for the batch.
  template <class... Fs>
  void post_batch(Time t, Fs&&... fns) {
    static_assert(sizeof...(Fs) >= 1);
    InlineFn batch[] = {InlineFn(std::forward<Fs>(fns), &pool_)...};
    calendar_.push_batch(t, next_seq_, batch, sizeof...(Fs));
    next_seq_ += sizeof...(Fs);
    ++batched_posts_;
    note_push();
  }

  int nranks() const { return nranks_; }
  RankCtx& rank(int i) { return ranks_[static_cast<std::size_t>(i)]; }

  const SimParams& params() const { return params_; }

  /// The rank context currently executing user code, or nullptr while the
  /// engine itself (event callbacks, scheduler loop) runs. A single pointer
  /// suffices under the one-runnable-context invariant, where a
  /// thread_local would misattribute ranks that share the engine thread.
  static RankCtx* current();

  std::uint64_t events_executed() const { return events_executed_; }
  std::uint64_t events_posted() const { return next_seq_; }

  // --- Engine-core observability (exported by World::run into obs) ---------

  /// Wall-clock nanoseconds spent inside run() — the denominator of the
  /// events/sec throughput metric.
  std::uint64_t run_wall_ns() const { return run_wall_ns_; }
  /// High-water mark of the pending-event queue.
  std::size_t queue_high_water() const { return queue_high_water_; }
  /// Number of post_batch() calls.
  std::uint64_t batched_posts() const { return batched_posts_; }
  /// Ready-heap pops discarded because the rank's generation moved on (the
  /// losing half of a wait_deadline timeout/wake pair). Exported as
  /// sim.stale_heap_skips.
  std::uint64_t stale_heap_skips() const { return stale_heap_skips_; }
  /// Queue depth sampled at every pop (log2 buckets).
  const Log2Hist& pop_depth_hist() const { return pop_depth_hist_; }
  /// Occupancy of the oversized-closure slab pool.
  const EventPool::Stats& pool_stats() const { return pool_.stats(); }

  // --- Flight-recorder hooks (src/obs; see DESIGN.md §12) -------------------

  /// Called from the scheduler loop between dispatches whenever the next
  /// dispatch time reaches `boundary`: everything before the boundary has
  /// executed, nothing at/after it has. Returns the next due boundary
  /// (kNever disables). The probe must only *read* simulation state — it
  /// runs on the engine thread and never perturbs event order or clocks.
  using TimeProbe = std::function<Time(Time boundary, Time horizon)>;

  /// Arms the probe; `first_due` is the first boundary. Disabled probes
  /// cost one compare per scheduler iteration.
  void set_time_probe(Time first_due, TimeProbe probe) {
    probe_ = std::move(probe);
    probe_due_ = probe_ ? first_due : kNever;
  }

  /// Attaches the host-time phase profiler (nullptr detaches). The engine
  /// opens kEnginePop/kCallback scopes around event execution and a
  /// kRankExec scope around each rank resume; a null or stopped profiler
  /// makes each site a single branch. The profiler's single current-phase
  /// chain is untroubled by fiber switches — they never leave the engine
  /// thread, so a kRankExec scope spanning a switch attributes the rank's
  /// host time to it.
  void set_profiler(obs::Profiler* p) { profiler_ = p; }
  obs::Profiler* profiler() const { return profiler_; }

 private:
  friend class RankCtx;
  friend class Trigger;

  static constexpr Time kNever = std::numeric_limits<Time>::max();

  /// Ready-heap entry. `gen` snapshots the rank's generation counter at
  /// push time; a pop with a stale generation is skipped. Ordering is on
  /// (t, id) only — two entries for one rank at the same time differ only
  /// in generation, and exactly one of them can match at pop time.
  struct ReadyEntry {
    Time t;
    std::uint32_t id;
    std::uint32_t gen;
    friend bool operator>(const ReadyEntry& a, const ReadyEntry& b) {
      if (a.t != b.t) return a.t > b.t;
      return a.id > b.id;
    }
  };

  Fiber& fiber(int i) { return *fibers_[static_cast<std::size_t>(i)]; }

  // Rank-context side: hand control to the scheduler and wait to be resumed.
  void yield_to_engine(int rank_id);
  // Engine side: resume one rank and wait until it hands control back.
  void resume_rank(RankCtx& c);
  // Body of one rank (runs on the rank's fiber stack).
  void fiber_rank_body(int rank_id);

  void wake(int rank_id, Time t);
  void execute_due(Time horizon);  // run events with time <= horizon
  [[noreturn]] void deadlock_dump();

  void run_one_event();
  void note_push() {
    const std::size_t d = calendar_.size();
    if (d > queue_high_water_) queue_high_water_ = d;
  }

  // --- Ready-rank min-heap on (resume_time, id) -----------------------------
  // A rank is pushed when it transitions to kReady (initial start, wake,
  // yield_until) and when wait_deadline arms a timeout; it is popped when
  // resumed. resume_time never changes while an entry is live (wake()
  // ignores non-blocked ranks), so no decrease-key is needed; superseded
  // entries are invalidated by the generation bump in resume_rank and
  // skipped at pop.
  void ready_push(int rank_id, Time t);
  ReadyEntry ready_pop();

  SimParams params_;
  int nranks_;
  std::unique_ptr<RankCtx[]> ranks_;   // hot: one cache line per rank
  // Cold per-rank execution contexts, touched once per switch; scheduling
  // state lives on RankCtx (the hot cache line).
  std::vector<std::unique_ptr<Fiber>> fibers_;
  EventPool pool_;  // declared before the queue: events release into it
  CalendarQueue calendar_;
  std::vector<ReadyEntry> ready_;  // binary min-heap
  const std::function<void(RankCtx&)>* rank_main_ = nullptr;  // live in run()
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t batched_posts_ = 0;
  std::uint64_t stale_heap_skips_ = 0;
  std::uint64_t run_wall_ns_ = 0;
  std::size_t queue_high_water_ = 0;
  Log2Hist pop_depth_hist_;
  TimeProbe probe_;
  Time probe_due_ = kNever;
  obs::Profiler* profiler_ = nullptr;
  bool running_ = false;
};

}  // namespace narma::sim
