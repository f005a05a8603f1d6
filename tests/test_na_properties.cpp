// Property-style parameterized suites for Notified Access invariants:
// conservation (every notification is matched exactly once), arrival-order
// matching, counting equivalence, and determinism — swept over rank counts,
// message counts, sizes, and node layouts — plus the footprint and
// allocation bounds of the match indexes (NA's UQ and MP's two queues).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <tuple>
#include <vector>

#include "alloc_counter.hpp"
#include "common/rng.hpp"
#include "core/world.hpp"

using namespace narma;

// ---------------------------------------------------------------------------
// Conservation: N producers each send K tagged notifications to one
// consumer; every one is matched exactly once, with the right payload.
// ---------------------------------------------------------------------------

struct FanInParam {
  int producers;
  int msgs_per_producer;
  int ranks_per_node;
};

class NaFanIn : public ::testing::TestWithParam<FanInParam> {};

TEST_P(NaFanIn, EveryNotificationMatchedExactlyOnce) {
  const auto [producers, k, rpn] = GetParam();
  WorldParams wp;
  wp.fabric.ranks_per_node = rpn;
  World world(producers + 1, wp);
  world.run([&, k = k, producers = producers](Rank& self) {
    const int consumer = producers;  // last rank consumes
    const std::size_t slots =
        static_cast<std::size_t>(producers) * static_cast<std::size_t>(k);
    auto win = self.win_allocate(slots * sizeof(double), sizeof(double));

    if (self.id() != consumer) {
      for (int m = 0; m < k; ++m) {
        const double v = self.id() * 1000.0 + m;
        const std::uint64_t disp =
            static_cast<std::uint64_t>(self.id()) * k + m;
        self.na().put_notify(*win, na::as_bytes(&v, sizeof(double)), consumer, disp, /*tag=*/m);
        win->flush(consumer);
      }
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, na::kAnyTag}, 1);
      std::map<std::pair<int, int>, int> seen;  // (source, tag) -> count
      for (std::size_t i = 0; i < slots; ++i) {
        self.na().start(req);
        na::NaStatus st;
        self.na().wait(req, &st);
        ++seen[{st.source, st.tag}];
      }
      // Exactly each (producer, msg) pair once.
      EXPECT_EQ(seen.size(), slots);
      for (const auto& [key, count] : seen) {
        EXPECT_EQ(count, 1) << "source " << key.first << " tag " << key.second;
        EXPECT_GE(key.first, 0);
        EXPECT_LT(key.first, producers);
        EXPECT_GE(key.second, 0);
        EXPECT_LT(key.second, k);
      }
      // All payloads in place.
      auto mem = win->local<double>();
      for (int p = 0; p < producers; ++p)
        for (int m = 0; m < k; ++m)
          EXPECT_EQ(mem[static_cast<std::size_t>(p) * k + m],
                    p * 1000.0 + m);
      EXPECT_EQ(self.na().uq_size(), 0u);
    }
    self.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NaFanIn,
    ::testing::Values(FanInParam{1, 1, 1}, FanInParam{1, 8, 1},
                      FanInParam{3, 5, 1}, FanInParam{7, 3, 1},
                      FanInParam{3, 5, 4},   // all on one node (shm path)
                      FanInParam{4, 4, 2},   // mixed shm + network
                      FanInParam{15, 2, 1}));

// ---------------------------------------------------------------------------
// Per-source ordering: notifications from one producer with one tag are
// matched in send order regardless of message size (transport switches).
// ---------------------------------------------------------------------------

class NaOrdering : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NaOrdering, SameSourceSameTagInOrder) {
  const std::size_t bytes = GetParam();
  World world(2);
  world.run([&](Rank& self) {
    constexpr int kN = 12;
    const std::size_t elems = std::max<std::size_t>(bytes / 8, 1);
    auto win =
        self.win_allocate(elems * sizeof(double) + sizeof(double), 1);
    if (self.id() == 0) {
      std::vector<double> buf(elems);
      for (int i = 0; i < kN; ++i) {
        buf[0] = i;
        self.na().put_notify(*win, na::as_bytes(buf.data(), bytes), 1, 0, 2);
        win->flush(1);  // keep buf stable per message
      }
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 2}, 1);
      for (int i = 0; i < kN; ++i) {
        self.na().start(req);
        self.na().wait(req);
        EXPECT_EQ(win->local<double>()[0], static_cast<double>(i));
      }
    }
    self.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, NaOrdering,
                         ::testing::Values(8u, 64u, 512u, 4096u, 65536u));

// ---------------------------------------------------------------------------
// Counting equivalence: one request with expected_count=k completes exactly
// when k single-count requests would.
// ---------------------------------------------------------------------------

class NaCounting : public ::testing::TestWithParam<int> {};

TEST_P(NaCounting, CountingMatchesKSingles) {
  const int k = GetParam();
  for (const bool counting : {true, false}) {
    World world(2);
    world.run([&](Rank& self) {
      auto win = self.win_allocate(8, 1);
      if (self.id() == 0) {
        for (int i = 0; i < k; ++i)
          self.na().put_notify(*win, na::as_bytes(nullptr, 0), 1, 0, 1);
        win->flush(1);
      } else {
        if (counting) {
          auto req = self.na().notify_init(*win, na::MatchSpec{0, 1},
                                            static_cast<std::uint32_t>(k));
          self.na().start(req);
          self.na().wait(req);
          EXPECT_EQ(req.matched(), static_cast<std::uint32_t>(k));
        } else {
          auto req = self.na().notify_init(*win, na::MatchSpec{0, 1}, 1);
          for (int i = 0; i < k; ++i) {
            self.na().start(req);
            self.na().wait(req);
          }
        }
        EXPECT_EQ(self.na().uq_size(), 0u);  // nothing left over either way
      }
      self.barrier();
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, NaCounting, ::testing::Values(1, 2, 7, 32));

// ---------------------------------------------------------------------------
// Determinism: identical runs produce identical virtual completion times.
// ---------------------------------------------------------------------------

TEST(NaDeterminism, IdenticalRunsIdenticalVirtualTimes) {
  auto run_once = [] {
    World world(4);
    std::vector<double> times(4);
    world.run([&](Rank& self) {
      auto win = self.win_allocate(4 * sizeof(double), sizeof(double));
      if (self.id() != 0) {
        double v = self.id();
        self.na().put_notify(*win, na::as_bytes(&v, 8), 0,
                             static_cast<std::uint64_t>(self.id()), 1);
        win->flush(0);
      } else {
        auto req = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, 1}, 3);
        self.na().start(req);
        self.na().wait(req);
      }
      self.barrier();
      times[static_cast<std::size_t>(self.id())] = self.now_us();
    });
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Matcher equivalence: the indexed O(1) matching engine must produce exactly
// the same match order as the legacy linear arrival-order scan — including
// wildcard requests competing with exact ones — on randomized schedules.
//
// A schedule is: P producers each firing K notifications with random tags at
// one consumer; after everything has arrived, the consumer runs a random
// sequence of requests (random <source|any, tag|any> specs, random expected
// counts), records how many notifications each consumed and the status of
// the last match, then drains the leftovers one wildcard match at a time to
// capture the residual arrival order. The trace must be identical between
// matchers for every seed.
// ---------------------------------------------------------------------------

namespace {

struct MatchTrace {
  // {phase, matched, completed, status.source, status.tag}
  std::vector<std::array<int, 5>> rows;
  std::size_t final_uq = 0;

  friend bool operator==(const MatchTrace&, const MatchTrace&) = default;
};

MatchTrace run_schedule(std::uint64_t seed, na::Matcher matcher) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const int producers = 1 + static_cast<int>(rng.next_below(3));
  const int k = 2 + static_cast<int>(rng.next_below(5));
  const int ntags = 1 + static_cast<int>(rng.next_below(4));
  // Mix transports: sometimes everything on one node (shm ring), sometimes
  // one rank per node (destination CQ), sometimes mixed.
  const int rpn = 1 + static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(producers) + 1));

  std::vector<std::vector<int>> tags(static_cast<std::size_t>(producers));
  for (auto& v : tags)
    for (int m = 0; m < k; ++m)
      v.push_back(static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(ntags))));

  struct Spec {
    int source;
    int tag;
    std::uint32_t expected;
  };
  std::vector<Spec> specs;
  const int nreq = 3 + static_cast<int>(rng.next_below(6));
  for (int r = 0; r < nreq; ++r) {
    int src = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(producers) + 1));
    if (src == producers) src = na::kAnySource;
    int tg = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(ntags) + 1));
    if (tg == ntags) tg = na::kAnyTag;
    specs.push_back({src, tg, 1 + static_cast<std::uint32_t>(
                                      rng.next_below(3))});
  }

  WorldParams wp;
  wp.na.matcher = matcher;
  // Shake out batching bugs: the drain batch size must never be observable.
  wp.na.hw_drain_batch = 1 + rng.next_below(17);
  wp.fabric.ranks_per_node = rpn;

  World world(producers + 1, wp);
  MatchTrace trace;
  world.run([&](Rank& self) {
    const int consumer = producers;
    auto win = self.win_allocate(64, 1);
    if (self.id() != consumer) {
      for (int m = 0; m < k; ++m)
        self.na().put_notify(
            *win, {}, consumer, 0,
            tags[static_cast<std::size_t>(self.id())][static_cast<
                std::size_t>(m)]);
      win->flush(consumer);
      self.barrier();
    } else {
      self.barrier();  // producers flushed: notifications are in flight
      self.ctx().yield_until(self.now() + ms(1), "settle");

      for (const Spec& sp : specs) {
        auto req = self.na().notify_init(
            *win, na::MatchSpec{sp.source, sp.tag}, sp.expected);
        self.na().start(req);
        const bool done = self.na().test(req);
        const na::NaStatus& st = req.status();
        trace.rows.push_back({0, static_cast<int>(req.matched()), done,
                              st.source, st.tag});
        self.na().free(req);
      }
      // Drain the leftovers one wildcard match at a time: records the full
      // residual arrival order.
      while (true) {
        auto req = self.na().notify_init(*win, na::MatchSpec::any(), 1);
        self.na().start(req);
        if (!self.na().test(req)) {
          self.na().free(req);
          break;
        }
        trace.rows.push_back(
            {1, 1, 1, req.status().source, req.status().tag});
        self.na().free(req);
      }
      trace.final_uq = self.na().uq_size();
    }
  });
  return trace;
}

}  // namespace

TEST(NaMatcherEquivalence, IndexedMatchesLinearOn1000RandomSchedules) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const MatchTrace linear = run_schedule(seed, na::Matcher::kLinear);
    const MatchTrace indexed = run_schedule(seed, na::Matcher::kIndexed);
    ASSERT_EQ(linear.rows, indexed.rows) << "match order diverged, seed "
                                         << seed;
    ASSERT_EQ(linear.final_uq, indexed.final_uq) << "seed " << seed;
    // Wildcard drain consumed everything in both engines.
    EXPECT_EQ(linear.final_uq, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Multi-round matcher equivalence: arrivals interleaved with tests and
// probes, laid out so that every schedule reaches the index states a
// single-round schedule cannot:
//   * a request shape first used while entries are already parked (its
//     list kind is linked from the store),
//   * a shape reused after a compaction (round 0 consumes over 64 parked
//     entries in one pass),
//   * an iprobe that introduces a shape not used before.
// Every test and probe outcome, and the residual UQ contents drained one
// wildcard match at a time, must equal the linear engine's.
// ---------------------------------------------------------------------------

namespace {

MatchTrace run_rounds(std::uint64_t seed, na::Matcher matcher) {
  Xoshiro256 rng(seed * 0xbf58476d1ce4e5b9ULL + 7);
  const int producers = 2 + static_cast<int>(rng.next_below(2));
  const int ntags = 1 + static_cast<int>(rng.next_below(3));
  const int rpn = 1 + static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(producers) + 1));
  const auto draw = [&rng](int n) {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  // Shape kinds: 0 exact/exact, 1 any-source, 2 any-tag, 3 any/any.
  const auto shape = [&](int kind) {
    const int src = draw(producers);
    const int tag = draw(ntags);
    return na::MatchSpec{kind == 1 || kind == 3 ? na::kAnySource : src,
                         kind == 2 || kind == 3 ? na::kAnyTag : tag};
  };

  constexpr int kRounds = 3;
  // sends[round][producer]: the tags that producer sends in that round;
  // round 0 is the bulk round.
  std::vector<std::vector<std::vector<int>>> sends(
      kRounds, std::vector<std::vector<int>>(
                   static_cast<std::size_t>(producers)));
  int bulk = 0;
  for (int r = 0; r < kRounds; ++r)
    for (auto& tags : sends[static_cast<std::size_t>(r)]) {
      const int count = r == 0 ? 40 + draw(21) : draw(9);
      if (r == 0) bulk += count;
      for (int m = 0; m < count; ++m) tags.push_back(draw(ntags));
    }

  // The consumer's script. An op is a test (kind 0, `expected` > 0) or an
  // iprobe (kind 1).
  struct Op {
    int kind;
    na::MatchSpec spec;
    std::uint32_t expected;
  };
  std::vector<std::vector<Op>> script(kRounds);
  const int first_kind = draw(4);
  const std::uint32_t first_expected = 1 + static_cast<std::uint32_t>(draw(3));
  const int leftover = 4 + draw(4);
  // Round 0: a probe for a tag nobody sends parks every arrival; then the
  // first shape meets a full store, an any/any pass consumes all but
  // `leftover` entries (compaction), and the first shape's kind is reused.
  script[0].push_back({1, {na::kAnySource, ntags}, 0});
  script[0].push_back({0, shape(first_kind), first_expected});
  script[0].push_back(
      {0, na::MatchSpec::any(), 0});  // expected filled in at run time
  script[0].push_back(
      {0, shape(first_kind), 1 + static_cast<std::uint32_t>(draw(2))});
  // Round 1 opens with a probe of a kind neither round-0 shape used.
  int new_kind = draw(4);
  while (new_kind == first_kind || new_kind == 3) new_kind = draw(4);
  script[1].push_back({1, shape(new_kind), 0});
  for (int r = 1; r < kRounds; ++r) {
    const int nops = 2 + draw(5);
    for (int i = 0; i < nops; ++i) {
      const int kind = draw(2);
      script[static_cast<std::size_t>(r)].push_back(
          {kind, shape(draw(4)),
           kind == 0 ? 1 + static_cast<std::uint32_t>(draw(3)) : 0});
    }
  }

  WorldParams wp;
  wp.na.matcher = matcher;
  wp.na.hw_drain_batch = 1 + rng.next_below(17);
  wp.fabric.ranks_per_node = rpn;

  World world(producers + 1, wp);
  MatchTrace trace;
  world.run([&](Rank& self) {
    const int consumer = producers;
    auto win = self.win_allocate(64, 1);
    for (int r = 0; r < kRounds; ++r) {
      const int phase = 10 * r;
      if (self.id() != consumer) {
        for (int tag : sends[static_cast<std::size_t>(r)]
                            [static_cast<std::size_t>(self.id())])
          self.na().put_notify(*win, {}, consumer, 0, tag);
        win->flush(consumer);
        self.barrier();
      } else {
        self.barrier();  // producers flushed: notifications are in flight
        self.ctx().yield_until(self.now() + ms(1), "settle");
        int consumed = 0;
        for (Op op : script[static_cast<std::size_t>(r)]) {
          if (op.kind == 1) {
            na::NaStatus st;
            const bool found = self.na().iprobe(*win, op.spec, &st);
            trace.rows.push_back({phase + 1, found, 0, st.source, st.tag});
            continue;
          }
          if (op.expected == 0)
            op.expected = static_cast<std::uint32_t>(bulk - consumed - leftover);
          auto req = self.na().notify_init(*win, op.spec, op.expected);
          self.na().start(req);
          const bool done = self.na().test(req);
          consumed += static_cast<int>(req.matched());
          trace.rows.push_back({phase, static_cast<int>(req.matched()), done,
                                req.status().source, req.status().tag});
          self.na().free(req);
        }
      }
      self.barrier();
    }
    if (self.id() == consumer) {
      // Residual UQ contents, in arrival order.
      while (true) {
        auto req = self.na().notify_init(*win, na::MatchSpec::any(), 1);
        self.na().start(req);
        const bool done = self.na().test(req);
        if (done)
          trace.rows.push_back(
              {99, 1, 1, req.status().source, req.status().tag});
        self.na().free(req);
        if (!done) break;
      }
      trace.final_uq = self.na().uq_size();
    }
  });
  return trace;
}

}  // namespace

TEST(NaMatcherEquivalence, IndexedMatchesLinearAcrossRounds) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const MatchTrace linear = run_rounds(seed, na::Matcher::kLinear);
    const MatchTrace indexed = run_rounds(seed, na::Matcher::kIndexed);
    ASSERT_EQ(linear.rows, indexed.rows) << "match order diverged, seed "
                                         << seed;
    ASSERT_EQ(linear.final_uq, indexed.final_uq) << "seed " << seed;
    EXPECT_EQ(linear.final_uq, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// UqIndex footprint and allocations, for every match index the runtime
// builds: NA's parked notifications, MP's parked messages (both looked up
// by shape) and MP's posted receives (looked up by envelope). Each traits
// type stores an entry for <shape, envelope> and finds one by the other.
// ---------------------------------------------------------------------------

namespace {

struct NaParked {
  using Index = na::UqIndex;
  static constexpr std::uint64_t kSpace = 1;  // the window
  static Index make() { return Index{}; }
  static void insert(Index& ix, na::MatchSpec, int source, int tag) {
    net::HwNotification n;
    n.window = kSpace;
    n.imm = net::encode_imm(source, static_cast<std::uint32_t>(tag));
    ix.insert(n);
  }
  static const net::HwNotification* find(Index& ix, std::uint64_t space,
                                         na::MatchSpec shape, int, int) {
    return ix.find({space, shape.source, shape.tag});
  }
  static int tag(const net::HwNotification* e) {
    return static_cast<int>(net::imm_tag(e->imm));
  }
};

struct MpParked {
  using Index = mp::detail::UnexpectedIndex;
  static constexpr std::uint64_t kSpace = 0;  // user tags
  static Index make() { return Index{}; }
  static void insert(Index& ix, na::MatchSpec, int source, int tag) {
    ix.insert(mp::detail::Unexpected{.src = source, .tag = tag});
  }
  static const mp::detail::Unexpected* find(Index& ix, std::uint64_t space,
                                            na::MatchSpec shape, int, int) {
    return ix.find({space, shape.source, shape.tag});
  }
  static int tag(const mp::detail::Unexpected* e) { return e->tag; }
};

struct MpPosted {
  using Index = mp::detail::PostedIndex;
  static constexpr std::uint64_t kSpace = 0;
  static Index make() { return Index{}; }
  static void insert(Index& ix, na::MatchSpec shape, int, int) {
    ix.insert(mp::detail::Posted{shape.source, shape.tag, nullptr});
  }
  static const mp::detail::Posted* find(Index& ix, std::uint64_t space,
                                        na::MatchSpec, int source, int tag) {
    return ix.find({space, source, tag});
  }
  static int tag(const mp::detail::Posted* e) { return e->tag; }
};

template <class T>
class UqIndexFootprint : public ::testing::Test {};
using IndexTypes = ::testing::Types<NaParked, MpParked, MpPosted>;
TYPED_TEST_SUITE(UqIndexFootprint, IndexTypes);

}  // namespace

TYPED_TEST(UqIndexFootprint, NeverMatchedEntryDoesNotPinTheStore) {
  // One entry nobody asks for, then 100k store/consume cycles of another
  // key through the exact, any-source and any-tag shapes (a lookup in
  // another space links the any/any kind too, whose lists in the first
  // space are then never read). Tombstones and stale refs must be
  // reclaimed: the footprint stays O(live), not O(cycles).
  using T = TypeParam;
  auto uq = T::make();
  T::insert(uq, na::MatchSpec{0, 7}, 0, 7);
  EXPECT_EQ(T::find(uq, T::kSpace + 1, na::MatchSpec::any(), 0, 7), nullptr);
  std::size_t max_slots = 0;
  std::size_t max_refs = 0;
  for (int i = 0; i < 100000; ++i) {
    const int shape = i % 3;
    const na::MatchSpec spec{shape == 1 ? na::kAnySource : 1,
                             shape == 2 ? na::kAnyTag : 2};
    T::insert(uq, spec, 1, 2);
    const auto* e = T::find(uq, T::kSpace, spec, 1, 2);
    ASSERT_NE(e, nullptr);
    ASSERT_NE(T::tag(e), 7);
    uq.erase(e);
    max_slots = std::max(max_slots, uq.store_slots());
    max_refs = std::max(max_refs, uq.linked_refs());
  }
  EXPECT_EQ(uq.size(), 1u);
  EXPECT_LE(max_slots, 128u);
  EXPECT_LE(max_refs, 4 * max_slots);
  const auto* stuck = T::find(uq, T::kSpace, na::MatchSpec{0, 7}, 0, 7);
  ASSERT_NE(stuck, nullptr);
  EXPECT_EQ(T::tag(stuck), 7);
}

enum class IndexType { kNaParked, kMpParked, kMpPosted };

class UqIndexAlloc
    : public ::testing::TestWithParam<std::tuple<IndexType, na::MatchSpec>> {
};

template <class T>
void constant_depth_cycle_is_allocation_free(na::MatchSpec spec) {
  // Eight entries ahead of the consumer, as a producer running ahead
  // leaves them; each cycle stores one, finds the oldest and consumes it.
  // The warm-up spans several compactions.
  auto uq = T::make();
  for (int i = 0; i < 8; ++i) T::insert(uq, spec, 3, 2);
  const auto cycle = [&] {
    T::insert(uq, spec, 3, 2);
    const auto* e = T::find(uq, T::kSpace, spec, 3, 2);
    ASSERT_NE(e, nullptr);
    uq.erase(e);
  };
  for (int i = 0; i < 1000; ++i) cycle();
  const std::uint64_t before = test::allocs_now();
  for (int i = 0; i < 10000; ++i) cycle();
  EXPECT_EQ(test::allocs_now() - before, 0u);
  EXPECT_EQ(uq.size(), 8u);
}

TEST_P(UqIndexAlloc, ConstantDepthCycleIsAllocationFree) {
  const auto [type, spec] = GetParam();
  switch (type) {
    case IndexType::kNaParked:
      constant_depth_cycle_is_allocation_free<NaParked>(spec);
      break;
    case IndexType::kMpParked:
      constant_depth_cycle_is_allocation_free<MpParked>(spec);
      break;
    case IndexType::kMpPosted:
      constant_depth_cycle_is_allocation_free<MpPosted>(spec);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UqIndexAlloc,
    ::testing::Combine(::testing::Values(IndexType::kNaParked,
                                         IndexType::kMpParked,
                                         IndexType::kMpPosted),
                       ::testing::Values(na::MatchSpec{3, 2},
                                         na::MatchSpec{na::kAnySource, 2},
                                         na::MatchSpec{3, na::kAnyTag},
                                         na::MatchSpec::any())));

// ---------------------------------------------------------------------------
// Stress: interleaved wildcard and specific requests against a soup of
// notifications never lose or double-match.
// ---------------------------------------------------------------------------

TEST(NaStress, MixedRequestsDrainEverything) {
  World world(5);
  world.run([](Rank& self) {
    constexpr int kPerProducer = 10;  // alternating tags 0 and 1
    auto win = self.win_allocate(8, 1);
    if (self.id() != 0) {
      for (int m = 0; m < kPerProducer; ++m) {
        self.na().put_notify(*win, na::as_bytes(nullptr, 0), /*target=*/0, 0, m % 2);
        win->flush(0);
      }
    } else {
      const int per_tag = 2 * kPerProducer;  // 4 producers, half per tag
      // Phase 1: drain every tag-1 notification with a specific request;
      // tag-0 arrivals are forced through the unexpected queue.
      auto req1 = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, 1}, 1);
      for (int i = 0; i < per_tag; ++i) {
        self.na().start(req1);
        na::NaStatus st;
        self.na().wait(req1, &st);
        EXPECT_EQ(st.tag, 1);
      }
      // Phase 2: wildcards pick up the parked tag-0 notifications in
      // arrival order.
      auto req_any =
          self.na().notify_init(*win, na::MatchSpec{na::kAnySource, na::kAnyTag}, 1);
      for (int i = 0; i < per_tag; ++i) {
        self.na().start(req_any);
        na::NaStatus st;
        self.na().wait(req_any, &st);
        EXPECT_EQ(st.tag, 0);
      }
      EXPECT_EQ(self.na().uq_size(), 0u);
    }
    self.barrier();
  });
}
