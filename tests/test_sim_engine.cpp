// Unit tests of the discrete-event engine: virtual clocks, event ordering,
// cooperative scheduling, triggers, and determinism.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

using namespace narma;

TEST(SimEngine, SingleRankClockStartsAtZero) {
  sim::Engine eng(1);
  Time seen = 1;
  eng.run([&](sim::RankCtx& r) { seen = r.now(); });
  EXPECT_EQ(seen, 0u);
}

TEST(SimEngine, AdvanceChargesVirtualTime) {
  sim::Engine eng(1);
  Time seen = 0;
  eng.run([&](sim::RankCtx& r) {
    r.advance(us(3));
    r.advance(ns(500));
    seen = r.now();
  });
  EXPECT_EQ(seen, us(3) + ns(500));
}

TEST(SimEngine, AdvanceToNeverMovesBackward) {
  sim::Engine eng(1);
  eng.run([&](sim::RankCtx& r) {
    r.advance(us(10));
    r.advance_to(us(5));  // no-op
    EXPECT_EQ(r.now(), us(10));
    r.advance_to(us(20));
    EXPECT_EQ(r.now(), us(20));
  });
}

TEST(SimEngine, RanksRunIndependently) {
  sim::Engine eng(4);
  std::vector<Time> clocks(4);
  eng.run([&](sim::RankCtx& r) {
    r.advance(us(static_cast<double>(r.id() + 1)));
    clocks[static_cast<std::size_t>(r.id())] = r.now();
  });
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(clocks[static_cast<std::size_t>(i)], us(i + 1.0));
}

TEST(SimEngine, EventsExecuteInTimeOrder) {
  sim::Engine eng(1);
  std::vector<int> order;
  eng.run([&](sim::RankCtx& r) {
    r.engine().post(us(3), [&] { order.push_back(3); });
    r.engine().post(us(1), [&] { order.push_back(1); });
    r.engine().post(us(2), [&] { order.push_back(2); });
    r.yield_until(us(10));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  });
}

TEST(SimEngine, EqualTimeEventsKeepIssueOrder) {
  sim::Engine eng(1);
  std::vector<int> order;
  eng.run([&](sim::RankCtx& r) {
    for (int i = 0; i < 16; ++i)
      r.engine().post(us(1), [&order, i] { order.push_back(i); });
    r.yield_until(us(2));
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  });
}

TEST(SimEngine, DrainExecutesOnlyDueEvents) {
  sim::Engine eng(1);
  eng.run([&](sim::RankCtx& r) {
    int fired = 0;
    r.engine().post(us(1), [&] { ++fired; });
    r.engine().post(us(5), [&] { ++fired; });
    r.advance(us(2));
    r.drain();
    EXPECT_EQ(fired, 1);
    r.advance(us(10));
    r.drain();
    EXPECT_EQ(fired, 2);
  });
}

TEST(SimEngine, EventPostedFromEventRunsWhenDue) {
  sim::Engine eng(1);
  std::vector<int> order;
  eng.run([&](sim::RankCtx& r) {
    r.engine().post(us(1), [&] {
      order.push_back(1);
      r.engine().post(us(1), [&] { order.push_back(2); });  // same time
      r.engine().post(us(4), [&] { order.push_back(4); });
    });
    r.yield_until(us(2));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    r.yield_until(us(5));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
  });
}

TEST(SimEngine, YieldUntilAdvancesClock) {
  sim::Engine eng(2);
  eng.run([&](sim::RankCtx& r) {
    r.yield_until(us(7));
    EXPECT_GE(r.now(), us(7));
  });
}

TEST(SimEngine, TriggerWakesBlockedRank) {
  sim::Engine eng(2);
  sim::Trigger trg;
  bool flag = false;
  eng.run([&](sim::RankCtx& r) {
    if (r.id() == 0) {
      r.advance(us(2));
      r.engine().post(us(5), [&, t = us(5)] {
        flag = true;
        trg.notify(r.engine(), t);
      });
    } else {
      while (!flag) r.wait(trg, "test-wait");
      // Woken no earlier than the notify time.
      EXPECT_GE(r.now(), us(5));
      EXPECT_TRUE(flag);
    }
  });
}

TEST(SimEngine, TriggerWakesAllWaiters) {
  sim::Engine eng(4);
  sim::Trigger trg;
  bool flag = false;
  int woken = 0;
  eng.run([&](sim::RankCtx& r) {
    if (r.id() == 0) {
      r.engine().post(us(1), [&] {
        flag = true;
        trg.notify(r.engine(), us(1));
      });
    } else {
      while (!flag) r.wait(trg, "multi-wait");
      ++woken;
    }
  });
  EXPECT_EQ(woken, 3);
}

TEST(SimEngine, WaitDeadlineTimesOutAtDeadline) {
  sim::Engine eng(1);
  sim::Trigger trg;
  eng.run([&](sim::RankCtx& r) {
    // Nobody notifies; the rank resumes exactly at the deadline.
    r.wait_deadline(trg, us(5), "deadline-only");
    EXPECT_EQ(r.now(), us(5));
  });
}

TEST(SimEngine, WaitDeadlineWakesEarlyOnNotify) {
  sim::Engine eng(1);
  sim::Trigger trg;
  eng.run([&](sim::RankCtx& r) {
    r.engine().post(us(1), [&] { trg.notify(r.engine(), us(1)); });
    r.wait_deadline(trg, us(10), "deadline-or-notify");
    // The notify wins; the stale timeout heap entry must not resume the
    // rank a second time nor advance it to us(10).
    EXPECT_EQ(r.now(), us(1));
    r.yield_until(us(20));
    EXPECT_EQ(r.now(), us(20));
  });
}

TEST(SimEngine, ManyRanksFinish) {
  sim::Engine eng(64);
  int done = 0;
  eng.run([&](sim::RankCtx& r) {
    r.advance(ns(static_cast<double>(r.id())));
    ++done;
  });
  EXPECT_EQ(done, 64);
}

TEST(SimEngine, EventCountersTrack) {
  sim::Engine eng(1);
  eng.run([&](sim::RankCtx& r) {
    r.engine().post(us(1), [] {});
    r.engine().post(us(2), [] {});
    r.yield_until(us(3));
  });
  EXPECT_EQ(eng.events_posted(), 2u);
  EXPECT_EQ(eng.events_executed(), 2u);
}

// Determinism: the same program yields bit-identical virtual timings.
TEST(SimEngine, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Engine eng(8);
    sim::Trigger trg;
    int token = 0;
    std::vector<Time> finish(8);
    eng.run([&](sim::RankCtx& r) {
      // Ring of notifications: rank i waits for token == i, passes it on.
      while (token != r.id()) r.wait(trg, "ring");
      r.advance(ns(123));
      ++token;
      trg.notify(r.engine(), r.now());
      finish[static_cast<std::size_t>(r.id())] = r.now();
    });
    return finish;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}
