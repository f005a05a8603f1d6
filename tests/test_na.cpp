// Unit tests of Notified Access — the paper's contribution (Sec. III/IV):
// put/get/accumulate notification, <source, tag> matching with wildcards,
// counting requests, unexpected-queue behavior, persistent-request
// lifecycle, statuses, zero-byte notifications, and the shared-memory
// inline-transfer path.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/world.hpp"

using namespace narma;

namespace {

void run2(const std::function<void(Rank&)>& fn, WorldParams p = {}) {
  World world(2, p);
  world.run(fn);
}

}  // namespace

TEST(Na, PutNotifyDeliversDataAndNotification) {
  run2([](Rank& self) {
    auto win = self.win_allocate(8 * sizeof(double), sizeof(double));
    if (self.id() == 0) {
      std::vector<double> v{1.5, 2.5};
      self.na().put_notify(*win, na::as_bytes(v.data(), 16), 1, 4, /*tag=*/7);
      win->flush(1);
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 7}, 1);
      self.na().start(req);
      na::NaStatus st;
      self.na().wait(req, &st);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 16u);
      // Data committed before the notification completes.
      auto mem = win->local<double>();
      EXPECT_EQ(mem[4], 1.5);
      EXPECT_EQ(mem[5], 2.5);
    }
    self.barrier();
  });
}

TEST(Na, ZeroBytePureNotification) {
  run2([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    if (self.id() == 0) {
      self.na().put_notify(*win, na::as_bytes(nullptr, 0), 1, 0, 3);
      win->flush(1);
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 3}, 1);
      self.na().start(req);
      na::NaStatus st;
      self.na().wait(req, &st);
      EXPECT_EQ(st.bytes, 0u);
    }
    self.barrier();
  });
}

TEST(Na, TagMismatchGoesToUnexpectedQueue) {
  run2([](Rank& self) {
    auto win = self.win_allocate(sizeof(double), sizeof(double));
    if (self.id() == 0) {
      double v = 1.0;
      self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 0, /*tag=*/5);
      self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 0, /*tag=*/6);
      win->flush(1);
    } else {
      // Wait for tag 6 first: tag 5's notification must be parked in the UQ.
      auto req6 = self.na().notify_init(*win, na::MatchSpec{0, 6}, 1);
      self.na().start(req6);
      self.na().wait(req6);
      EXPECT_EQ(self.na().uq_size(), 1u);
      auto req5 = self.na().notify_init(*win, na::MatchSpec{0, 5}, 1);
      self.na().start(req5);
      na::NaStatus st;
      self.na().wait(req5, &st);  // matched from the UQ
      EXPECT_EQ(st.tag, 5);
      EXPECT_EQ(self.na().uq_size(), 0u);
    }
    self.barrier();
  });
}

TEST(Na, AnySourceAnyTagWildcards) {
  World world(3);
  world.run([](Rank& self) {
    auto win = self.win_allocate(2 * sizeof(double), sizeof(double));
    if (self.id() != 2) {
      double v = self.id() + 1.0;
      self.na().put_notify(*win, na::as_bytes(&v, 8), 2,
                           static_cast<std::uint64_t>(self.id()),
                           10 + self.id());
      win->flush(2);
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, na::kAnyTag}, 1);
      for (int i = 0; i < 2; ++i) {
        self.na().start(req);
        na::NaStatus st;
        self.na().wait(req, &st);
        EXPECT_EQ(st.tag, 10 + st.source);
        EXPECT_EQ(win->local<double>()[static_cast<std::size_t>(st.source)],
                  st.source + 1.0);
      }
    }
    self.barrier();
  });
}

TEST(Na, CountingRequestCompletesAfterN) {
  World world(4);
  world.run([](Rank& self) {
    auto win = self.win_allocate(4 * sizeof(double), sizeof(double));
    if (self.id() != 0) {
      double v = self.id() * 1.0;
      self.na().put_notify(*win, na::as_bytes(&v, 8), 0, static_cast<std::uint64_t>(self.id()), 1);
      win->flush(0);
    } else {
      // One counting request for all three children (the paper's tree
      // pattern).
      auto req = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, 1}, 3);
      self.na().start(req);
      self.na().wait(req);
      EXPECT_EQ(req.matched(), 3u);
      auto mem = win->local<double>();
      EXPECT_EQ(mem[1] + mem[2] + mem[3], 6.0);
    }
    self.barrier();
  });
}

TEST(Na, StatusReportsLastMatchingAccess) {
  run2([](Rank& self) {
    auto win = self.win_allocate(3 * sizeof(double), sizeof(double));
    if (self.id() == 0) {
      double v = 1;
      self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 0, 4);
      self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 1, 4);
      self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 2, 4);
      win->flush(1);
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 4}, 3);
      self.na().start(req);
      na::NaStatus st;
      self.na().wait(req, &st);
      // "the returned MPI status object includes the information of only
      // the last matching notified access"
      EXPECT_EQ(st.tag, 4);
      EXPECT_EQ(st.source, 0);
    }
    self.barrier();
  });
}

TEST(Na, PersistentRequestReuse) {
  run2([](Rank& self) {
    auto win = self.win_allocate(sizeof(double), sizeof(double));
    constexpr int kReps = 20;
    if (self.id() == 0) {
      for (int i = 0; i < kReps; ++i) {
        double v = i;
        self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 0, 9);
        win->flush(1);  // ensure delivery order and buffer stability
      }
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 9}, 1);
      for (int i = 0; i < kReps; ++i) {
        self.na().start(req);
        self.na().wait(req);
        EXPECT_EQ(win->local<double>()[0], static_cast<double>(i));
      }
    }
    self.barrier();
  });
}

TEST(Na, CompletedRequestStaysCompletedUntilRestart) {
  run2([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    if (self.id() == 0) {
      self.na().put_notify(*win, na::as_bytes(nullptr, 0), 1, 0, 2);
      win->flush(1);
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 2}, 1);
      self.na().start(req);
      self.na().wait(req);
      // Repeated tests on a completed request keep returning true.
      EXPECT_TRUE(self.na().test(req));
      EXPECT_TRUE(self.na().test(req));
      // Restart re-arms it.
      self.na().start(req);
      EXPECT_FALSE(self.na().test(req));
    }
    self.barrier();
  });
}

TEST(Na, TestIsNonblocking) {
  run2([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    if (self.id() == 1) {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 1}, 1);
      self.na().start(req);
      EXPECT_FALSE(self.na().test(req));  // nothing sent yet
    }
    self.barrier();
    if (self.id() == 0) {
      self.na().put_notify(*win, na::as_bytes(nullptr, 0), 1, 0, 1);
      win->flush(1);
    }
    self.barrier();
    if (self.id() == 1) {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 1}, 1);
      self.na().start(req);
      EXPECT_TRUE(self.na().test(req));  // already arrived (from UQ/CQ)
    }
    self.barrier();
  });
}

TEST(Na, GetNotifyNotifiesTarget) {
  run2([](Rank& self) {
    auto win = self.win_allocate(4 * sizeof(double), sizeof(double));
    if (self.id() == 1) {
      win->local<double>()[2] = 7.25;
    }
    self.barrier();
    if (self.id() == 0) {
      double v = 0;
      self.na().get_notify(*win, na::as_writable_bytes(&v, 8), 1, 2, 11);
      win->flush(1);
      EXPECT_EQ(v, 7.25);
    } else {
      // The target learns its buffer was read and can reuse it.
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 11}, 1);
      self.na().start(req);
      na::NaStatus st;
      self.na().wait(req, &st);
      EXPECT_EQ(st.tag, 11);
      EXPECT_EQ(st.bytes, 8u);
    }
    self.barrier();
  });
}

TEST(Na, FetchAddNotify) {
  run2([](Rank& self) {
    auto win = self.win_allocate(sizeof(std::int64_t), sizeof(std::int64_t));
    if (self.id() == 0) {
      std::int64_t old = -1;
      self.na().fetch_add_notify_i64(*win, 1, 0, 5, &old, 13);
      win->flush(1);
      EXPECT_EQ(old, 0);
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 13}, 1);
      self.na().start(req);
      self.na().wait(req);
      EXPECT_EQ(win->local<std::int64_t>()[0], 5);
    }
    self.barrier();
  });
}

TEST(Na, SeparateWindowsDoNotCrossMatch) {
  run2([](Rank& self) {
    auto w1 = self.win_allocate(8, 1);
    auto w2 = self.win_allocate(8, 1);
    if (self.id() == 0) {
      self.na().put_notify(*w1, na::as_bytes(nullptr, 0), 1, 0, 1);
      w1->flush(1);
    } else {
      // A request on w2 must NOT match the w1 notification.
      auto req2 = self.na().notify_init(*w2, na::MatchSpec{0, 1}, 1);
      self.na().start(req2);
      // Give the notification time to arrive, then check.
      self.ctx().yield_until(us(100), "settle");
      EXPECT_FALSE(self.na().test(req2));
      // The w1 notification is now parked in the UQ; a w1 request finds it.
      auto req1 = self.na().notify_init(*w1, na::MatchSpec{0, 1}, 1);
      self.na().start(req1);
      EXPECT_TRUE(self.na().test(req1));
    }
    self.barrier();
    w2.reset();
    w1.reset();
  });
}

TEST(Na, ArrivalOrderPreservedForWildcards) {
  run2([](Rank& self) {
    auto win = self.win_allocate(8 * sizeof(double), sizeof(double));
    constexpr int kN = 6;
    if (self.id() == 0) {
      for (int i = 0; i < kN; ++i) {
        double v = i;
        self.na().put_notify(*win, na::as_bytes(&v, 8), 1, static_cast<std::uint64_t>(i), 20 + i);
        win->flush(1);
      }
    } else {
      // Wildcard requests must match in arrival order (paper: "the oldest
      // notification if multiple notifications match").
      auto req = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, na::kAnyTag}, 1);
      for (int i = 0; i < kN; ++i) {
        self.na().start(req);
        na::NaStatus st;
        self.na().wait(req, &st);
        EXPECT_EQ(st.tag, 20 + i);
      }
    }
    self.barrier();
  });
}

TEST(Na, SourceWildcardTagSpecific) {
  World world(3);
  world.run([](Rank& self) {
    auto win = self.win_allocate(4 * sizeof(double), sizeof(double));
    if (self.id() != 2) {
      double v = self.id() + 0.5;
      // Both ranks send tag 3 and tag 4.
      self.na().put_notify(*win, na::as_bytes(&v, 8), 2, static_cast<std::uint64_t>(self.id()), 3);
      self.na().put_notify(*win, na::as_bytes(&v, 8), 2,
                           static_cast<std::uint64_t>(2 + self.id()), 4);
      win->flush(2);
    } else {
      auto req4 = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, 4}, 2);
      self.na().start(req4);
      self.na().wait(req4);
      // Both tag-3 notifications remain for later.
      auto req3 = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, 3}, 2);
      self.na().start(req3);
      self.na().wait(req3);
      EXPECT_EQ(self.na().uq_size(), 0u);
    }
    self.barrier();
  });
}

TEST(Na, InvalidTagAborts) {
  World world(2);
  world.run([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    if (self.id() == 0) {
      EXPECT_DEATH(
          self.na().put_notify(*win, na::as_bytes(nullptr, 0), 1, 0,
                               static_cast<int>(net::kMaxTag) + 1),
          "immediate range");
    }
    self.barrier();
  });
}

TEST(Na, FreeChargesAndInvalidates) {
  World world(1);
  world.run([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    auto req = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, na::kAnyTag}, 1);
    EXPECT_TRUE(req.valid());
    self.na().free(req);
    EXPECT_FALSE(req.valid());
  });
}

// --- Shared-memory (XPMEM) path -------------------------------------------------

TEST(NaShm, InlineTransferSmallPut) {
  WorldParams p = WorldParams::single_node(2);
  run2(
      [](Rank& self) {
        auto win = self.win_allocate(8 * sizeof(double), sizeof(double));
        if (self.id() == 0) {
          std::vector<double> v{3.25, 4.25};
          self.na().put_notify(*win, na::as_bytes(v.data(), 16), 1, 2, 5);
          win->flush(1);
        } else {
          auto req = self.na().notify_init(*win, na::MatchSpec{0, 5}, 1);
          self.na().start(req);
          na::NaStatus st;
          self.na().wait(req, &st);
          EXPECT_EQ(st.bytes, 16u);
          // Inline payload committed at match time.
          EXPECT_EQ(win->local<double>()[2], 3.25);
          EXPECT_EQ(win->local<double>()[3], 4.25);
        }
        self.barrier();
      },
      p);
}

namespace {

// One hardware action is one engine event. Within a node the notified put
// is one shm-ring delivery that also completes the origin (coherent memory
// completes at delivery); across nodes it is the delivery plus the ack.
std::uint64_t events_per_put_notify(int ranks_per_node) {
  WorldParams p;
  p.fabric.ranks_per_node = ranks_per_node;
  std::uint64_t events = 0;
  run2(
      [&events](Rank& self) {
        auto win = self.win_allocate(64, 1);
        self.barrier();
        if (self.id() == 0) {
          // Let rank 1 reach the closing barrier, so that only this put's
          // events run inside the measured span.
          self.ctx().yield_until(self.now() + ms(1));
          const sim::Engine& eng = self.ctx().engine();
          const std::uint64_t before = eng.events_executed();
          const double v = 1;
          self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 0, 3);
          win->flush(1);
          events = eng.events_executed() - before;
        }
        self.barrier();
      },
      p);
  return events;
}

}  // namespace

TEST(NaShm, IntraNodePutNotifyIsOneEvent) {
  EXPECT_EQ(events_per_put_notify(2), 1u);
}

TEST(Na, InterNodePutNotifyIsDeliveryAndAck) {
  EXPECT_EQ(events_per_put_notify(1), 2u);
}

TEST(NaShm, LargePutUsesCopyThenNotify) {
  WorldParams p = WorldParams::single_node(2);
  run2(
      [](Rank& self) {
        const std::size_t n = 1024;  // 8 KB, far above the inline limit
        auto win = self.win_allocate(n * sizeof(double), sizeof(double));
        if (self.id() == 0) {
          std::vector<double> v(n);
          for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
          self.na().put_notify(*win, na::as_bytes(v.data(), n * 8), 1, 0, 6);
          win->flush(1);
        } else {
          auto req = self.na().notify_init(*win, na::MatchSpec{0, 6}, 1);
          self.na().start(req);
          self.na().wait(req);
          auto mem = win->local<double>();
          EXPECT_EQ(mem[0], 0.0);
          EXPECT_EQ(mem[n - 1], static_cast<double>(n - 1));
        }
        self.barrier();
      },
      p);
}

TEST(NaShm, InlineDisabledStillCorrect) {
  WorldParams p = WorldParams::single_node(2);
  p.na.enable_shm_inline = false;
  run2(
      [](Rank& self) {
        auto win = self.win_allocate(sizeof(double), sizeof(double));
        if (self.id() == 0) {
          double v = 1.75;
          self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 0, 2);
          win->flush(1);
        } else {
          auto req = self.na().notify_init(*win, na::MatchSpec{0, 2}, 1);
          self.na().start(req);
          self.na().wait(req);
          EXPECT_EQ(win->local<double>()[0], 1.75);
        }
        self.barrier();
      },
      p);
}

namespace {

struct ShmPutOutcome {
  Time latency = 0;  // rank 0's issue to rank 1's completed wait
  std::uint64_t data_transfers = 0;
  bool payload_ok = false;  // payload in place, sentinels around it intact
};

/// How the notification meets its request: drained off the hardware queue
/// by the started request's wait, or parked in the unexpected queue by a
/// probe before the request is started.
enum class Arrival { kStartedFirst, kParkedFirst };

/// One intra-node put_notify of `bytes` distinct bytes from rank 0 to 1, at
/// byte displacement `kGuard + disp` of a window whose other bytes hold a
/// sentinel.
ShmPutOutcome shm_put_notify(std::size_t bytes, std::size_t disp = 0,
                             na::Matcher matcher = na::Matcher::kIndexed,
                             Arrival arrival = Arrival::kStartedFirst) {
  constexpr std::size_t kGuard = 8;
  constexpr std::byte kSentinel{0xa5};
  std::vector<std::byte> payload(bytes);
  for (std::size_t i = 0; i < bytes; ++i)
    payload[i] = static_cast<std::byte>(i + 1);
  std::vector<std::byte> want(kGuard + disp + bytes + kGuard, kSentinel);
  std::copy(payload.begin(), payload.end(), want.begin() + kGuard + disp);
  WorldParams p = WorldParams::single_node(2);
  p.na.matcher = matcher;
  World world(2, p);
  ShmPutOutcome out;
  Time t_issue = 0;
  world.run([&](Rank& self) {
    auto win = self.win_allocate(want.size(), 1);
    auto* mem = static_cast<std::byte*>(win->base());
    std::fill_n(mem, want.size(), kSentinel);
    self.barrier();
    if (self.id() == 0) {
      t_issue = self.now();
      self.na().put_notify(*win, payload, 1, kGuard + disp, 3);
      win->flush(1);
    } else {
      if (arrival == Arrival::kParkedFirst) {
        EXPECT_EQ(self.na().probe(*win, na::MatchSpec{0, 3}).bytes, bytes);
      }
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 3}, 1);
      self.na().start(req);
      self.na().wait(req);
      out.latency = self.now() - t_issue;
      out.payload_ok = std::equal(want.begin(), want.end(), mem);
    }
    self.barrier();
  });
  out.data_transfers = world.fabric().counters().data_transfers;
  return out;
}

}  // namespace

TEST(NaShm, InlineBoundaryIsTheEntryCapacity) {
  // A payload of exactly the entry's inline capacity rides inside the
  // notification; one byte more takes the separate put, and its consumer
  // pays the non-inline commit (fetching the remotely written line).
  const na::NaParams costs;
  const ShmPutOutcome fits = shm_put_notify(net::kShmInlineCapacity);
  const ShmPutOutcome over = shm_put_notify(net::kShmInlineCapacity + 1);
  EXPECT_TRUE(fits.payload_ok);
  EXPECT_TRUE(over.payload_ok);
  EXPECT_EQ(over.data_transfers, fits.data_transfers + 1);
  EXPECT_GE(over.latency,
            fits.latency + costs.shm_noninline_commit - costs.inline_commit);
}

TEST(NaShm, InlinePayloadOfEveryLengthLandsExactly) {
  // Every inline length at every byte misalignment of the target, committed
  // at match time by both matchers, whether the notification is matched
  // off the hardware queue or out of the unexpected queue. No separate data
  // put is issued, and no byte outside the target range changes.
  const ShmPutOutcome none = shm_put_notify(0);
  for (na::Matcher m : {na::Matcher::kLinear, na::Matcher::kIndexed})
    for (Arrival a : {Arrival::kStartedFirst, Arrival::kParkedFirst})
      for (std::size_t disp = 0; disp < 8; ++disp)
        for (std::size_t n = 0; n <= net::kShmInlineCapacity; ++n) {
          const ShmPutOutcome got = shm_put_notify(n, disp, m, a);
          ASSERT_TRUE(got.payload_ok)
              << n << " bytes at +" << disp << ", "
              << (m == na::Matcher::kLinear ? "linear" : "indexed") << ", "
              << (a == Arrival::kParkedFirst ? "parked" : "started")
              << " first";
          ASSERT_EQ(got.data_transfers, none.data_transfers);
        }
}

TEST(NaShm, MixedTransportsBothQueuesPolled) {
  // 4 ranks, 2 per node: rank 0 receives from rank 1 (shm) and rank 2
  // (network) — matching must merge both hardware queues.
  WorldParams p;
  p.fabric.ranks_per_node = 2;
  World world(4, p);
  world.run([](Rank& self) {
    auto win = self.win_allocate(2 * sizeof(double), sizeof(double));
    if (self.id() == 1 || self.id() == 2) {
      double v = self.id() * 1.0;
      self.na().put_notify(*win, na::as_bytes(&v, 8), 0,
                           static_cast<std::uint64_t>(self.id() - 1), 8);
      win->flush(0);
    }
    if (self.id() == 0) {
      auto req = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, 8}, 2);
      self.na().start(req);
      self.na().wait(req);
      auto mem = win->local<double>();
      EXPECT_EQ(mem[0], 1.0);
      EXPECT_EQ(mem[1], 2.0);
    }
    self.barrier();
  });
}

// --- Cache-model instrumentation (paper Sec. V) -----------------------------------

TEST(NaCache, TwoCompulsoryMissesPerMatchedNotification) {
  WorldParams p;
  World world(2, p);
  world.run([](Rank& self) {
    auto win = self.win_allocate(sizeof(double), sizeof(double));
    if (self.id() == 0) {
      double v = 1;
      self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 0, 1);
      win->flush(1);
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 1}, 1);
      self.na().start(req);
      // Wait for arrival first so the instrumented test() completes in one
      // call, then measure with a cold cache.
      self.nic().wait_until([&] { return !self.nic().dest_cq().empty(); },
                            "arrive");
      cachesim::Cache cache = cachesim::make_l1d();
      self.na().set_cache_model(&cache);
      EXPECT_TRUE(self.na().test(req));
      const auto& m = self.na().cache_misses();
      // The paper's claim: the request slot and the UQ header — exactly two
      // compulsory misses attributable to the matching engine.
      EXPECT_EQ(m.request, 1u);
      EXPECT_EQ(m.uq, 1u);
      self.na().set_cache_model(nullptr);
    }
    self.barrier();
  });
}
