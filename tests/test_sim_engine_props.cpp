// Property tests of the engine's event and scheduling core.
//
// The headline property pins the engine's execution over >= 1000
// randomized schedules (random rank counts, event trees with same-time
// children, yields, interleaved drains): event order, scheduled times,
// finish clocks and event counts fold into one FNV hash that must match a
// committed constant. Alongside it live the engine edge cases: events
// posted exactly at a rank's resume horizon, posting from inside a handler
// at the same timestamp, batched posts, and the deadlock-dump death test.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "golden_schedule.hpp"
#include "sim/engine.hpp"

using namespace narma;

namespace {

// ---------------------------------------------------------------------------
// Randomized-schedule harness. A schedule is generated from a seed *before*
// execution (so every engine configuration replays exactly the same
// program): per-rank op lists (advance / post / yield / drain) plus a tree
// of event specs whose children repost at relative delays (including zero,
// i.e. same-timestamp posting from inside a handler).
// ---------------------------------------------------------------------------

struct EventSpec {
  Time delay = 0;                // relative to the posting context
  std::vector<int> children;     // indices into Script::events
};

struct Op {
  enum Kind : std::uint8_t { kAdvance, kPost, kYield, kDrain } kind;
  Time dt = 0;
  int event = -1;  // for kPost
};

struct Script {
  int nranks = 1;
  std::vector<std::vector<Op>> ops;  // per rank
  std::vector<EventSpec> events;
};

Script make_script(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Script sc;
  sc.nranks = 1 + static_cast<int>(rng.next_below(4));
  sc.ops.resize(static_cast<std::size_t>(sc.nranks));
  for (auto& ops : sc.ops) {
    const std::size_t n_ops = 2 + rng.next_below(24);
    for (std::size_t i = 0; i < n_ops; ++i) {
      Op op;
      switch (rng.next_below(4)) {
        case 0:
          op.kind = Op::kAdvance;
          op.dt = ns(static_cast<double>(rng.next_below(900)));
          break;
        case 1: {
          op.kind = Op::kPost;
          // Delays cluster near zero (mostly-monotonic NIC-like pattern)
          // with occasional far-future outliers.
          op.dt = rng.next_below(8) == 0
                      ? us(static_cast<double>(1 + rng.next_below(50)))
                      : ns(static_cast<double>(rng.next_below(1200)));
          const std::size_t parent = sc.events.size();
          op.event = static_cast<int>(parent);
          sc.events.push_back(EventSpec{});
          const std::size_t n_children = rng.next_below(3);
          for (std::size_t c = 0; c < n_children; ++c) {
            EventSpec child;
            // Zero-delay children exercise same-timestamp posting from
            // inside a running handler.
            child.delay = rng.next_below(3) == 0
                              ? 0
                              : ns(static_cast<double>(rng.next_below(700)));
            sc.events[parent].children.push_back(
                static_cast<int>(sc.events.size()));
            sc.events.push_back(child);
          }
          break;
        }
        case 2:
          op.kind = Op::kYield;
          op.dt = ns(static_cast<double>(rng.next_below(2500)));
          break;
        default:
          op.kind = Op::kDrain;
          break;
      }
      ops.push_back(op);
    }
  }
  return sc;
}

struct RunLog {
  std::vector<std::pair<int, Time>> exec;  // (event index, scheduled time)
  std::vector<Time> finish;                // per-rank final clock
  std::uint64_t events_executed = 0;
  std::uint64_t events_posted = 0;

  bool operator==(const RunLog&) const = default;
};

void post_spec(sim::Engine& eng, const Script& sc, int idx, Time t,
               RunLog& log) {
  eng.post(t, [&eng, &sc, idx, t, &log] {
    log.exec.emplace_back(idx, t);
    const EventSpec& ev = sc.events[static_cast<std::size_t>(idx)];
    for (int c : ev.children)
      post_spec(eng, sc, c,
                t + sc.events[static_cast<std::size_t>(c)].delay, log);
  });
}

RunLog run_script(const Script& sc, sim::SimParams sp) {
  sim::Engine eng(sc.nranks, sp);
  RunLog log;
  log.finish.resize(static_cast<std::size_t>(sc.nranks));
  eng.run([&](sim::RankCtx& r) {
    for (const Op& op : sc.ops[static_cast<std::size_t>(r.id())]) {
      switch (op.kind) {
        case Op::kAdvance: r.advance(op.dt); break;
        case Op::kPost:
          post_spec(r.engine(), sc, op.event, r.now() + op.dt, log);
          break;
        case Op::kYield: r.yield_until(r.now() + op.dt); break;
        case Op::kDrain: r.drain(); break;
      }
    }
    // Push every rank past the last possible event so all events execute.
    r.yield_until(r.now() + us(200));
    log.finish[static_cast<std::size_t>(r.id())] = r.now();
  });
  log.events_executed = eng.events_executed();
  log.events_posted = eng.events_posted();
  return log;
}

// FNV fold of one run: exec order with scheduled times, per-rank finish
// clocks, and both event counters (lengths folded first so runs of
// different shapes cannot alias).
std::uint64_t fold_log(std::uint64_t h, const RunLog& log) {
  h = golden::fnv_fold(h, log.exec.size());
  for (const auto& [idx, t] : log.exec) {
    h = golden::fnv_fold(h, static_cast<std::uint64_t>(idx));
    h = golden::fnv_fold(h, t);
  }
  h = golden::fnv_fold(h, log.finish.size());
  for (Time f : log.finish) h = golden::fnv_fold(h, f);
  h = golden::fnv_fold(h, log.events_executed);
  return golden::fnv_fold(h, log.events_posted);
}

// Generated over seeds 0..999 on the tree that still carried the original
// binary-heap std::function queue beside the calendar queue, where both
// folded to this value; it pins the calendar queue to that reference order.
constexpr std::uint64_t kGoldenEngineScheduleHash = 0xf57c4572e2bb83dbull;

TEST(EngineSchedule, ThousandRandomSchedulesMatchGoldenHash) {
  std::uint64_t h = golden::kFnvOffset;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const RunLog log = run_script(make_script(seed), sim::SimParams{});
    ASSERT_EQ(log.events_executed, log.events_posted)
        << "unexecuted events at seed " << seed;
    h = fold_log(h, log);
  }
  EXPECT_EQ(h, kGoldenEngineScheduleHash);
}

// Tiny calendars force constant bucket-drain/rebuild churn; order must not
// change (the calendar geometry is performance-only state).
TEST(EngineSchedule, CalendarGeometryIsOrderInvariant) {
  sim::SimParams default_p;
  sim::SimParams one_bucket = default_p;
  one_bucket.calendar_buckets = 1;
  sim::SimParams odd_buckets = default_p;
  odd_buckets.calendar_buckets = 7;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const Script sc = make_script(seed);
    const RunLog a = run_script(sc, default_p);
    ASSERT_EQ(a, run_script(sc, one_bucket))
        << "single-bucket divergence at seed " << seed;
    ASSERT_EQ(a, run_script(sc, odd_buckets))
        << "odd-bucket divergence at seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Edge cases.
// ---------------------------------------------------------------------------

// An event posted exactly at a rank's resume horizon executes before the
// rank resumes (hardware-before-software at equal instants).
TEST(EngineEdge, EventExactlyAtResumeHorizonRunsFirst) {
  sim::Engine eng(2);
  bool fired = false;
  eng.run([&](sim::RankCtx& r) {
    if (r.id() == 0) {
      r.engine().post(us(5), [&] { fired = true; });
      r.yield_until(us(10));
    } else {
      r.yield_until(us(5));  // resume horizon == event time
      EXPECT_TRUE(fired);
      EXPECT_EQ(r.now(), us(5));
    }
  });
  EXPECT_TRUE(fired);
}

// post() from inside a handler at the handler's own timestamp: the child
// executes within the same drain, after the parent, before any later event.
TEST(EngineEdge, PostFromHandlerAtSameTimestamp) {
  sim::Engine eng(1);
  std::vector<int> order;
  eng.run([&](sim::RankCtx& r) {
    r.engine().post(us(2), [&] { order.push_back(99); });
    r.engine().post(us(1), [&, t = us(1)] {
      order.push_back(1);
      r.engine().post(t, [&, t] {
        order.push_back(2);
        r.engine().post(t, [&] { order.push_back(3); });  // nested again
      });
    });
    r.yield_until(us(3));
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 99}));
}

// A waiter woken inside a handler that immediately re-waits must not be
// lost when the trigger is notified again (the notify scratch-buffer swap
// must leave the waiter list usable during the wake sweep).
TEST(EngineEdge, RewaitingWokenRankIsNotLost) {
  sim::Engine eng(2);
  sim::Trigger trg;
  int phase = 0;
  eng.run([&](sim::RankCtx& r) {
    if (r.id() == 0) {
      r.engine().post(us(1), [&] {
        phase = 1;
        trg.notify(r.engine(), us(1));
      });
      r.engine().post(us(2), [&] {
        phase = 2;
        trg.notify(r.engine(), us(2));
      });
      r.yield_until(us(3));
    } else {
      // Woken at phase 1, predicate still unmet -> re-waits on the same
      // trigger; the second notify must find it.
      while (phase != 2) r.wait(trg, "re-wait");
      EXPECT_EQ(phase, 2);
      EXPECT_GE(r.now(), us(2));
    }
  });
  EXPECT_EQ(phase, 2);
}

// Steady-state notify with churning waiters must not leak wakeups across
// notify calls (scratch reuse).
TEST(EngineEdge, RepeatedNotifyWakesEachRegistrationOnce) {
  sim::Engine eng(4);
  sim::Trigger trg;
  int round = 0;
  constexpr int kRounds = 64;
  eng.run([&](sim::RankCtx& r) {
    if (r.id() == 0) {
      for (int i = 1; i <= kRounds; ++i)
        r.engine().post(us(i), [&, i, t = us(i)] {
          round = i;
          trg.notify(r.engine(), t);
        });
      r.yield_until(us(kRounds + 1));
    } else {
      int last_seen = 0;
      while (round < kRounds) {
        r.wait(trg, "round-wait");
        EXPECT_GT(round, last_seen);  // every wake observes fresh progress
        last_seen = round;
      }
    }
  });
  EXPECT_EQ(round, kRounds);
}

// ---------------------------------------------------------------------------
// Deadlock dump (death test): a rank blocked on a never-notified trigger
// with no pending events must abort with the diagnostic state dump.
// ---------------------------------------------------------------------------

TEST(EngineDeath, DeadlockDumpsRankStatesAndAborts) {
  EXPECT_DEATH(
      {
        sim::Engine eng(2);
        sim::Trigger trg;
        eng.run([&](sim::RankCtx& r) {
          if (r.id() == 0) r.wait(trg, "never-notified");
        });
      },
      "simulation deadlock");
}

}  // namespace
