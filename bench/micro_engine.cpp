// Simulator event-core throughput: the real-time cost of post+pop+dispatch,
// the floor under every experiment in the suite (DESIGN.md §8).
//
// Two measurements of the calendar event queue:
//
//  * Hold-model throughput — a classic calendar-queue workload: K=1024
//    self-sustaining event chains, each handler reposting one successor at a
//    random near-future delay, until N total events have executed. Closures
//    capture 40 bytes (the NIC delivery shape), stored inline in InlineFn.
//    Reported as events/sec at N = 1k / 100k / 10M.
//
//  * Post/pop split — N events pre-posted at random times in a 1 ms window,
//    then drained; the posting loop and the drain are timed separately
//    (ns/post, ns/pop+dispatch).
//
// NARMA_SCALE shrinks the event counts for smoke runs; NARMA_REPS sets the
// repetitions (best-of is reported). CI regression gating:
// tools/check_engine_baseline.py holds the NARMA_JSON export to an absolute
// events/s floor derived from the committed bench/BENCH_engine.json.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace {

using namespace narma;

// 40-byte capture: engine/state pointer plus NIC-delivery-shaped payload
// words. Fits InlineFn's 48-byte inline buffer.
struct Hold {
  sim::Engine* eng = nullptr;
  Xoshiro256 rng{42};
  std::uint64_t posted = 0;
  std::uint64_t executed = 0;
  std::uint64_t target = 0;
  std::uint64_t sink = 0;
};

void post_chain(Hold& h, Time t) {
  ++h.posted;
  struct Payload {
    Hold* h;
    Time t;
    std::uint64_t src, dst, bytes;
  } p{&h, t, h.posted & 7, (h.posted >> 3) & 7, 64 + (h.posted & 63)};
  static_assert(sizeof(Payload) == 40);
  h.eng->post(t, [p] {
    Hold& hold = *p.h;
    ++hold.executed;
    hold.sink += p.src ^ p.dst ^ p.bytes;
    if (hold.posted < hold.target)
      post_chain(hold,
                 p.t + ns(static_cast<double>(1 + hold.rng.next_below(1000))));
  });
}

/// Runs the hold model to completion; returns wall nanoseconds for the whole
/// post+drain phase (measured on the rank fiber, which the engine resumes
/// only after the last event has executed).
std::uint64_t run_hold(std::uint64_t n) {
  sim::Engine eng(1);
  Hold h;
  h.eng = &eng;
  h.target = n;
  std::uint64_t wall = 0;
  eng.run([&](sim::RankCtx& r) {
    const std::uint64_t seeds = std::min<std::uint64_t>(n, 1024);
    // Each chain advances <= 1 us per event: a horizon past the worst-case
    // final timestamp guarantees the yield returns only when the queue is
    // empty.
    const Time horizon =
        us(static_cast<double>((n / seeds + 2) * 2 + 10));
    const std::uint64_t t0 = wallclock_ns();
    for (std::uint64_t i = 0; i < seeds; ++i)
      post_chain(h, ns(static_cast<double>(1 + h.rng.next_below(1000))));
    r.yield_until(horizon);
    wall = wallclock_ns() - t0;
  });
  NARMA_CHECK(h.executed == n)
      << "hold model executed " << h.executed << " of " << n;
  return wall ? wall : 1;
}

struct SplitResult {
  double ns_post = 0;
  double ns_pop = 0;
};

/// Pre-posts n events at random times in a 1 ms window, then drains; times
/// the two loops separately.
SplitResult run_split(std::uint64_t n) {
  sim::Engine eng(1);
  Hold h;
  h.eng = &eng;
  h.target = n;  // no chaining: posted == target stops reposts
  h.posted = n;
  SplitResult res;
  eng.run([&](sim::RankCtx& r) {
    Xoshiro256 rng(7);
    const std::uint64_t t0 = wallclock_ns();
    for (std::uint64_t i = 0; i < n; ++i) {
      struct Payload {
        Hold* h;
        Time t;
        std::uint64_t src, dst, bytes;
      } p{&h, 0, i & 7, (i >> 3) & 7, 64 + (i & 63)};
      eng.post(ns(static_cast<double>(1 + rng.next_below(1000000))), [p] {
        ++p.h->executed;
        p.h->sink += p.src ^ p.dst ^ p.bytes;
      });
    }
    const std::uint64_t t1 = wallclock_ns();
    r.yield_until(us(1100));
    const std::uint64_t t2 = wallclock_ns();
    res.ns_post = static_cast<double>(t1 - t0) / static_cast<double>(n);
    res.ns_pop = static_cast<double>(t2 - t1) / static_cast<double>(n);
  });
  NARMA_CHECK(h.executed == n);
  return res;
}

}  // namespace

int main() {
  bench::header("micro_engine", "simulator event-core throughput");
  const int reps = bench::reps(3);
  const double scale = bench::scale();
  bench::note("hold model: 1024 chains, 40 B captures, random <=1 us delays; "
              "best of " + std::to_string(reps) + " reps");

  std::vector<std::uint64_t> sizes;
  for (std::uint64_t n : {1000ull, 100000ull, 10000000ull})
    sizes.push_back(std::max<std::uint64_t>(
        1000, static_cast<std::uint64_t>(static_cast<double>(n) * scale)));

  Table thr({"events", "wall ms", "Mevents/s"});
  for (std::uint64_t n : sizes) {
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (int rep = 0; rep < reps; ++rep) best = std::min(best, run_hold(n));
    const double mps =
        static_cast<double>(n) * 1e3 / static_cast<double>(best);
    thr.add_row({Table::fmt(static_cast<std::size_t>(n)),
                 Table::fmt(static_cast<double>(best) / 1e6, 1),
                 Table::fmt(mps, 2)});
  }
  bench::print(thr);

  bench::header("micro_engine_split", "post vs pop+dispatch latency");
  const std::uint64_t split_n = std::max<std::uint64_t>(
      1000, static_cast<std::uint64_t>(100000 * scale));
  bench::note("pre-posted at random times in a 1 ms window, then drained; "
              "n=" + std::to_string(split_n));
  SplitResult best{1e30, 1e30};
  for (int rep = 0; rep < reps; ++rep) {
    const SplitResult r = run_split(split_n);
    if (r.ns_post + r.ns_pop < best.ns_post + best.ns_pop) best = r;
  }
  Table split({"ns/post", "ns/pop+dispatch"});
  split.add_row({Table::fmt(best.ns_post, 1), Table::fmt(best.ns_pop, 1)});
  bench::print(split);
  return 0;
}
