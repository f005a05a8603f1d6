// The MatchSpec / std::span API surface and request-lifecycle regressions:
// new-vs-deprecated overload equivalence, top-level re-exports, the pooled
// request slots, the move-assignment slot-release fix, and NaParams
// validation.
#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "narma/narma.hpp"

using namespace narma;

// ---------------------------------------------------------------------------
// MatchSpec vocabulary.
// ---------------------------------------------------------------------------

TEST(MatchSpec, WildcardsAndEquality) {
  constexpr MatchSpec any = MatchSpec::any();
  EXPECT_TRUE(any.any_source());
  EXPECT_TRUE(any.any_tag());
  EXPECT_EQ(any, (MatchSpec{kAnySource, kAnyTag}));

  constexpr MatchSpec exact{3, 7};
  EXPECT_FALSE(exact.any_source());
  EXPECT_FALSE(exact.any_tag());
  EXPECT_NE(exact, any);
}

// ---------------------------------------------------------------------------
// Span-based notified accesses round-trip payloads; the deprecated
// raw-pointer shims behave identically.
// ---------------------------------------------------------------------------

TEST(NaSpanApi, PutNotifySpanRoundTrip) {
  World world(2);
  world.run([](Rank& self) {
    auto win = self.win_allocate(8 * sizeof(double), sizeof(double));
    if (self.id() == 0) {
      std::vector<double> buf{1.0, 2.0, 3.0, 4.0};
      self.na().put_notify(*win, std::as_bytes(std::span(buf)), 1, 0, 5);
      win->flush(1);
    } else {
      auto req = self.na().notify_init(*win, MatchSpec{0, 5}, 1);
      self.na().start(req);
      na::NaStatus st;
      self.na().wait(req, &st);
      EXPECT_EQ(st.bytes, 4 * sizeof(double));
      auto mem = win->local<double>();
      for (int i = 0; i < 4; ++i) EXPECT_EQ(mem[i], i + 1.0);
    }
    self.barrier();
  });
}

TEST(NaSpanApi, GetNotifySpanRoundTrip) {
  World world(2);
  world.run([](Rank& self) {
    auto win = self.win_allocate(4 * sizeof(double), sizeof(double));
    if (self.id() == 0) {
      // The *target* of a get_notify learns its memory has been read.
      auto req = self.na().notify_init(*win, MatchSpec{1, 9}, 1);
      self.na().start(req);
      win->local<double>()[0] = 42.0;
      self.barrier();  // data published before the reader starts
      self.na().wait(req);
    } else {
      self.barrier();
      std::vector<double> dst(1, 0.0);
      self.na().get_notify(*win, std::as_writable_bytes(std::span(dst)), 0,
                           0, 9);
      win->flush(0);
      EXPECT_EQ(dst[0], 42.0);
    }
  });
}

TEST(NaSpanApi, StridedSpanMatchesRawShim) {
  for (const bool use_span : {true, false}) {
    World world(2);
    world.run([&](Rank& self) {
      constexpr std::size_t kBlock = 2 * sizeof(double);
      constexpr std::size_t kBlocks = 3;
      constexpr std::size_t kStride = 4 * sizeof(double);
      auto win = self.win_allocate(32 * sizeof(double), sizeof(double));
      if (self.id() == 0) {
        std::vector<double> buf(12);
        for (std::size_t i = 0; i < buf.size(); ++i)
          buf[i] = static_cast<double>(i);
        if (use_span) {
          self.na().put_notify_strided(*win, std::as_bytes(std::span(buf)),
                                       kBlock, kBlocks, kStride, 1, 0, 8, 3);
        } else {
          self.na().put_notify_strided(
              *win,
              na::as_bytes(buf.data(), (kBlocks - 1) * kStride + kBlock),
              kBlock, kBlocks, kStride, 1, 0, 8, 3);
        }
        win->flush(1);
      } else {
        auto req = self.na().notify_init(*win, MatchSpec{0, 3}, 1);
        self.na().start(req);
        self.na().wait(req);
        auto mem = win->local<double>();
        for (std::size_t b = 0; b < kBlocks; ++b) {
          EXPECT_EQ(mem[b * 8], static_cast<double>(b * 4));
          EXPECT_EQ(mem[b * 8 + 1], static_cast<double>(b * 4 + 1));
        }
      }
      self.barrier();
    });
  }
}

// ---------------------------------------------------------------------------
// MatchSpec overloads of notify_init / iprobe / probe agree with the
// deprecated (source, tag) shims.
// ---------------------------------------------------------------------------

TEST(NaMatchSpecApi, ProbeOverloadsAgree) {
  World world(2);
  world.run([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    if (self.id() == 0) {
      self.na().put_notify(*win, {}, 1, 0, 4);
      win->flush(1);
      self.barrier();
    } else {
      na::NaStatus st_new;
      const na::NaStatus st_blocking =
          self.na().probe(*win, MatchSpec{0, 4});
      EXPECT_TRUE(self.na().iprobe(*win, MatchSpec{0, 4}, &st_new));
      na::NaStatus st_old;
      EXPECT_TRUE(self.na().iprobe(*win, MatchSpec{0, 4}, &st_old));
      EXPECT_EQ(st_new.source, st_old.source);
      EXPECT_EQ(st_new.tag, st_old.tag);
      EXPECT_EQ(st_blocking.tag, 4);
      // Probing never consumed: the notification still matches a request.
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 4}, 1);  // deprecated shim
      self.na().start(req);
      EXPECT_TRUE(self.na().test(req));
      self.barrier();
    }
  });
}

// ---------------------------------------------------------------------------
// Pooled request slots: notify_init/free recycle slab storage instead of
// hitting the heap, and a moved-into request releases its slot through the
// engine (charging t_free) rather than dropping it.
// ---------------------------------------------------------------------------

TEST(NaRequestLifecycle, PoolRecyclesSlots) {
  World world(1, WorldParams::single_node(1));
  world.run([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    const auto& stats = self.na().pool_stats();
    {
      auto a = self.na().notify_init(*win, MatchSpec::any(), 1);
      auto b = self.na().notify_init(*win, MatchSpec::any(), 1);
      EXPECT_EQ(stats.live, 2u);
      self.na().free(a);
      EXPECT_EQ(stats.live, 1u);
      // The freed slot is recycled by the next init (LIFO free list).
      auto c = self.na().notify_init(*win, MatchSpec::any(), 1);
      EXPECT_EQ(stats.live, 2u);
      EXPECT_GE(stats.recycled, 1u);
      (void)b;
      (void)c;
    }
    EXPECT_EQ(stats.live, 0u);  // destructors released everything
    EXPECT_EQ(stats.capacity % 64, 0u);
  });
}

TEST(NaRequestLifecycle, MoveAssignReleasesOwnedSlot) {
  WorldParams wp;
  World world(1, WorldParams::single_node(1));
  world.run([&](Rank& self) {
    auto win = self.win_allocate(8, 1);
    const auto& stats = self.na().pool_stats();
    auto a = self.na().notify_init(*win, MatchSpec::any(), 1);
    auto b = self.na().notify_init(*win, MatchSpec{na::kAnySource, 2}, 1);
    EXPECT_EQ(stats.live, 2u);

    // Move-assignment over a slot-owning request must release the old slot
    // through NaEngine::free: pool count drops and t_free is charged.
    const Time t0 = self.now();
    a = std::move(b);
    EXPECT_EQ(self.now() - t0, wp.na.t_free);
    EXPECT_EQ(stats.live, 1u);
    EXPECT_TRUE(a.valid());
    EXPECT_FALSE(b.valid());  // NOLINT(bugprone-use-after-move)

    // Move construction just transfers ownership: no free, no charge.
    const Time t1 = self.now();
    NotifyRequest c(std::move(a));
    EXPECT_EQ(self.now(), t1);
    EXPECT_EQ(stats.live, 1u);
    EXPECT_TRUE(c.valid());
    EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)

    // Moving into an empty request: no release either.
    NotifyRequest d;
    d = std::move(c);
    EXPECT_EQ(stats.live, 1u);
    EXPECT_TRUE(d.valid());
  });
}

// ---------------------------------------------------------------------------
// Top-level re-exports: the narma:: spellings are the na:: types.
// ---------------------------------------------------------------------------

TEST(NaReExports, TopLevelAliases) {
  static_assert(std::is_same_v<narma::MatchSpec, narma::na::MatchSpec>);
  static_assert(std::is_same_v<narma::NaStatus, narma::na::NaStatus>);
  static_assert(std::is_same_v<narma::NotifyRequest,
                               narma::na::NotifyRequest>);
  EXPECT_EQ(narma::kAnySource, narma::na::kAnySource);
  EXPECT_EQ(narma::kAnyTag, narma::na::kAnyTag);
}

// ---------------------------------------------------------------------------
// Parameter validation: an out-of-range drain batch is rejected when the
// engine is built, with a diagnostic naming the field, never clamped.
// ---------------------------------------------------------------------------

TEST(NaParamsDeath, HwDrainBatchOutOfRangeIsRejected) {
  for (const std::size_t bad :
       {std::size_t{0}, na::NaEngine::kMaxHwDrainBatch + 1}) {
    EXPECT_DEATH(
        {
          WorldParams wp;
          wp.na.hw_drain_batch = bad;
          World world(2, wp);
          world.run([](Rank&) {});
        },
        "NaParams::hw_drain_batch")
        << "hw_drain_batch = " << bad;
  }
}
