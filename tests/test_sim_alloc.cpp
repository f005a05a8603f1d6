// Allocation accounting for the engine hot path.
//
// The acceptance bar: posting and executing inline-sized closures on
// the calendar queue performs **zero heap allocations** in steady state. We
// verify it with the global counting operator new/delete of
// alloc_counter.hpp. The pool, calendar buckets, and Trigger scratch
// buffers are warmed by a first round; the measured rounds then assert an
// allocation delta of exactly zero.
#include <gtest/gtest.h>

#include <memory>

#include "alloc_counter.hpp"
#include "sim/engine.hpp"

namespace {

using namespace narma;
using test::allocs_now;

// ---------------------------------------------------------------------------
// InlineFn in isolation: inline-sized closures never touch the heap; an
// oversized closure goes to the slab pool (one slab allocation, amortized).
// ---------------------------------------------------------------------------

TEST(InlineFnAlloc, InlineSizedClosureNeverAllocates) {
  // 40 bytes of capture: the NIC delivery shape (a handful of ints/pointers)
  // — fits the 48-byte inline buffer.
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  std::uint64_t sink = 0;
  sim::EventPool pool;
  const std::uint64_t before = allocs_now();
  for (int i = 0; i < 1000; ++i) {
    sim::InlineFn fn([&sink, a, b, c, d] { sink += a + b + c + d; }, &pool);
    sim::InlineFn moved = std::move(fn);
    moved();
  }
  EXPECT_EQ(allocs_now() - before, 0u);
  EXPECT_EQ(sink, 10000u);
  EXPECT_EQ(pool.stats().live, 0u);
}

TEST(InlineFnAlloc, OversizedClosureUsesPoolAndRecycles) {
  struct Big {
    std::uint64_t payload[12];  // 96 bytes > 48-byte inline buffer
  };
  sim::EventPool pool;
  std::uint64_t sink = 0;
  {  // warm: first alloc grows a slab
    Big big{};
    big.payload[0] = 7;
    sim::InlineFn fn([big, &sink] { sink += big.payload[0]; }, &pool);
    fn();
  }
  EXPECT_EQ(pool.stats().live, 0u);
  EXPECT_GE(pool.stats().capacity, 1u);
  const std::uint64_t before = allocs_now();
  for (int i = 0; i < 1000; ++i) {
    Big big{};
    big.payload[0] = 1;
    sim::InlineFn fn([big, &sink] { sink += big.payload[0]; }, &pool);
    fn();
  }
  // Steady state: every block comes from the warmed free list.
  EXPECT_EQ(allocs_now() - before, 0u);
  EXPECT_GE(pool.stats().recycled, 1000u);
}

// A closure that is not trivially copyable goes to the pool even when it is
// small, and the calendar's sorts and inserts move it without copying the
// capture: it runs once and is destroyed once.
TEST(InlineFnAlloc, NonTrivialClosureIsPooledAndDestroyedOnce) {
  auto token = std::make_shared<int>(0);
  sim::EventPool pool;
  sim::CalendarQueue q(16);
  int runs = 0;
  q.push(5'000'000, 0, sim::InlineFn([token, &runs] { ++runs; }, &pool));
  EXPECT_EQ(pool.stats().live, 1u);
  EXPECT_EQ(token.use_count(), 2);
  // 1,000 inline events in scrambled time order over [0, 10) us; the second
  // half is pushed after the first pop sorted a bucket, so many of them
  // land by insertion into the sorted bottom segment.
  std::uint64_t seq = 1;
  int others = 0;
  const auto push_others = [&](int n) {
    for (int i = 0; i < n; ++i, ++seq)
      q.push(static_cast<Time>((seq * 7919) % 1000) * 10'000, seq,
             sim::InlineFn([&others] { ++others; }, &pool));
  };
  push_others(500);
  sim::CalEvent first = q.pop();
  first.fn();
  push_others(500);
  while (!q.empty()) {
    sim::CalEvent ev = q.pop();
    ev.fn();
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(others, 1000);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(pool.stats().live, 0u);
}

// ---------------------------------------------------------------------------
// Full engine: a NIC-like workload (post from handlers, one closure that
// delivers and wakes, as the shm notification does) allocates nothing after
// a warm-up run.
// ---------------------------------------------------------------------------

TEST(EngineAlloc, SteadyStatePostAndDrainIsAllocationFree) {
  sim::Engine eng(2);
  sim::Trigger trg;
  std::uint64_t sink = 0;
  std::uint64_t measured_allocs = 0;
  int notifies = 0;
  constexpr int kRoundsPerPhase = 200;
  sim::Engine* ep = &eng;
  eng.run([&](sim::RankCtx& r) {
    if (r.id() == 0) {
      // Phases 0-1 warm every container on the hot path (calendar segments
      // under both the construction-time and the rebuilt bucket geometry,
      // slab pool, ready heap, trigger waiter/scratch ping-pong); phase 2
      // replays the identical traffic pattern and must allocate nothing.
      for (int phase = 0; phase < 3; ++phase) {
        const std::uint64_t before = allocs_now();
        const Time base = r.now();
        for (int i = 1; i <= kRoundsPerPhase; ++i) {
          const Time t = base + us(static_cast<double>(i));
          const std::uint64_t x = static_cast<std::uint64_t>(i);
          ep->post(t, [ep, &trg, &sink, &notifies, x, t] {
            sink += x;
            ep->post(t, [ep, &trg, &sink, &notifies, x, t] {
              sink += x;
              ++notifies;
              trg.notify(*ep, t);
            });
          });
        }
        r.yield_until(base + us(kRoundsPerPhase + 20));
        if (phase == 2) measured_allocs = allocs_now() - before;
      }
    } else {
      for (int i = 0; i < 3 * kRoundsPerPhase; ++i) r.wait(trg, "alloc-wait");
    }
  });
  // 200 posts + 200 nested deliver-and-wake posts + 200 notify/wait
  // round-trips in the measured phase: all storage must come from warmed
  // containers.
  EXPECT_EQ(measured_allocs, 0u);
  EXPECT_EQ(notifies, 3 * kRoundsPerPhase);
  EXPECT_GT(sink, 0u);
}

// Trigger::notify with a persistent waiter population: the scratch ping-pong
// must not allocate after the first notify sized it.
TEST(EngineAlloc, TriggerNotifyIsAllocationFreeAfterWarmup) {
  sim::Engine eng(4);
  sim::Trigger trg;
  std::uint64_t waker_allocs = 0;
  int rounds_done = 0;
  constexpr int kRounds = 100;
  eng.run([&](sim::RankCtx& r) {
    if (r.id() == 0) {
      // Warm round, then measure the remaining notifies.
      for (int i = 1; i <= kRounds; ++i) {
        const Time t = us(static_cast<double>(i));
        r.yield_until(t);
        const std::uint64_t before = allocs_now();
        trg.notify(r.engine(), t);
        if (i > 1) waker_allocs += allocs_now() - before;
        rounds_done = i;
      }
      r.yield_until(us(kRounds + 2));
    } else {
      while (rounds_done < kRounds) r.wait(trg, "notify-alloc");
    }
  });
  EXPECT_EQ(waker_allocs, 0u);
}

}  // namespace
