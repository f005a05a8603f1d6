// Failure-injection tests: every fatal condition the runtime guards against
// must be detected and reported, not silently corrupt state — CQ/ring
// overflow (fatal, like uGNI), simulation deadlock, misuse of requests and
// windows, and tag-range violations. Each overflow death test has a
// backpressure counterpart: the same traffic under
// OverflowPolicy::kBackpressure must complete, with the stalls surfaced in
// the fabric counters. The seeded fault plan (FaultParams) is checked for
// determinism, a property test pins the fault-free path to bit-identical
// virtual times, and a backend x overflow-policy matrix runs the stencil
// under injected faults.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/stencil.hpp"
#include "common/rng.hpp"
#include "core/world.hpp"
#include "net/faults.hpp"
#include "obs/msgtrace.hpp"

using namespace narma;

TEST(FailureInjection, DestCqOverflowIsFatal) {
  WorldParams wp;
  wp.fabric.dest_cq_capacity = 8;
  EXPECT_DEATH(
      {
        World world(2, wp);
        world.run([](Rank& self) {
          auto win = self.win_allocate(8, 1);
          if (self.id() == 0) {
            // 32 notifications into a CQ of 8 that nobody consumes.
            for (int i = 0; i < 32; ++i)
              self.na().put_notify(*win, na::as_bytes(nullptr, 0), 1, 0, 1);
            win->flush(1);
          } else {
            self.ctx().yield_until(ms(10), "sleep");
          }
          self.barrier();
        });
      },
      "completion queue overflow");
}

TEST(FailureInjection, MailboxOverflowIsFatal) {
  WorldParams wp;
  wp.fabric.mailbox_capacity = 4;
  EXPECT_DEATH(
      {
        World world(2, wp);
        world.run([](Rank& self) {
          if (self.id() == 0) {
            int v = 1;
            for (int i = 0; i < 64; ++i) self.mp().isend(&v, 4, 1, 1);
            self.ctx().yield_until(ms(10), "drain");
          } else {
            self.ctx().yield_until(ms(20), "sleep");
          }
        });
      },
      "mailbox overflow");
}

TEST(FailureInjection, SimulationDeadlockIsDetected) {
  EXPECT_DEATH(
      {
        World world(2);
        world.run([](Rank& self) {
          // Rank 1 waits for a message that never comes.
          if (self.id() == 1) {
            int v;
            self.recv(&v, 4, 0, 1);
          }
        });
      },
      "simulation deadlock");
}

TEST(FailureInjection, DeadlockDumpNamesBlockSite) {
  EXPECT_DEATH(
      {
        World world(2);
        world.run([](Rank& self) {
          auto win = self.win_allocate(8, 1);
          if (self.id() == 1) {
            auto req = self.na().notify_init(*win, na::MatchSpec{0, 1}, 1);
            self.na().start(req);
            self.na().wait(req);  // never satisfied
          }
          self.barrier();
        });
      },
      "na-wait");
}

TEST(FailureInjection, TestWithoutStartAborts) {
  World world(1);
  world.run([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    auto req = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, na::kAnyTag}, 1);
    EXPECT_DEATH(self.na().test(req), "not.*started");
  });
}

TEST(FailureInjection, ZeroExpectedCountAborts) {
  World world(1);
  world.run([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    EXPECT_DEATH(self.na().notify_init(*win, na::MatchSpec{na::kAnySource, na::kAnyTag}, 0),
                 "expected_count");
  });
}

TEST(FailureInjection, BadNotificationSourceAborts) {
  World world(2);
  world.run([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    if (self.id() == 0) {
      EXPECT_DEATH(self.na().notify_init(*win, na::MatchSpec{7, 1}, 1),
                   "bad notification source");
    }
    self.barrier();
  });
}

TEST(FailureInjection, RemotePutOutOfWindowAborts) {
  World world(2);
  EXPECT_DEATH(
      {
        World w2(2);
        w2.run([](Rank& self) {
          auto win = self.win_allocate(16, 1);
          if (self.id() == 0) {
            std::vector<std::byte> big(64);
            win->put(big.data(), big.size(), 1, 0);  // 64 B into 16 B
            win->flush(1);
          }
          self.barrier();
        });
      },
      "out of bounds");
}

TEST(FailureInjection, SendToInvalidRankAborts) {
  World world(2);
  world.run([](Rank& self) {
    if (self.id() == 0) {
      int v = 1;
      EXPECT_DEATH(self.send(&v, 4, 5, 1), "bad destination");
    }
    self.barrier();
  });
}

TEST(FailureInjection, WindowDestructionFlushesOutstandingOps) {
  // Destroying a window with in-flight puts must complete them first (the
  // destructor flushes and barriers), so the data still lands.
  World world(2);
  world.run([](Rank& self) {
    double result = 0;
    {
      auto win = self.rma().create(&result, sizeof(double), sizeof(double));
      if (self.id() == 0) {
        static double v = 3.75;
        win->put(&v, sizeof(double), 1, 0);
        // No explicit flush: the destructor's flush_all must cover it.
      }
    }
    if (self.id() == 1) {
      EXPECT_EQ(result, 3.75);
    }
    self.barrier();
  });
}

// --- Shared-memory notification ring (fatal policy) --------------------------

TEST(FailureInjection, ShmRingOverflowIsFatal) {
  WorldParams wp = WorldParams::single_node(2);
  wp.fabric.shm_ring_capacity = 4;
  EXPECT_DEATH(
      {
        World world(2, wp);
        world.run([](Rank& self) {
          auto win = self.win_allocate(8, 1);
          if (self.id() == 0) {
            for (int i = 0; i < 32; ++i)
              self.na().put_notify(*win, na::as_bytes(nullptr, 0), 1, 0, 1);
            win->flush(1);
          } else {
            self.ctx().yield_until(ms(10), "sleep");
          }
          self.barrier();
        });
      },
      "notification ring overflow");
}

// --- Backpressure counterparts (DESIGN.md §10) -------------------------------
//
// The exact traffic that is fatal above must *complete* under
// OverflowPolicy::kBackpressure, with the stalls visible in the fabric
// counters instead of a dead process.

namespace {

WorldParams backpressure_params(WorldParams wp = {}) {
  wp.fabric.faults.overflow_policy = net::OverflowPolicy::kBackpressure;
  return wp;
}

}  // namespace

TEST(FailureInjection, DestCqOverflowBackpressureCompletes) {
  WorldParams wp = backpressure_params();
  wp.fabric.dest_cq_capacity = 8;
  World world(2, wp);
  world.run([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    if (self.id() == 0) {
      // Same burst as DestCqOverflowIsFatal: 32 notifications into a CQ of
      // 8. The sender now stalls on credits until the consumer drains.
      for (int i = 0; i < 32; ++i)
        self.na().put_notify(*win, na::as_bytes(nullptr, 0), 1, 0, 1);
      win->flush(1);
    } else {
      self.ctx().yield_until(ms(10), "sleep");
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 1}, 32);
      self.na().start(req);
      self.na().wait(req);
    }
    self.barrier();
  });
  EXPECT_GT(world.fabric().counters().credit_stalls, 0u);
  EXPECT_EQ(world.fabric().counters().drops, 0u);
}

TEST(FailureInjection, MailboxOverflowBackpressureCompletes) {
  WorldParams wp = backpressure_params();
  wp.fabric.mailbox_capacity = 4;
  World world(2, wp);
  world.run([](Rank& self) {
    if (self.id() == 0) {
      int v = 41;
      for (int i = 0; i < 64; ++i) self.send(&v, 4, 1, 1);
    } else {
      self.ctx().yield_until(ms(10), "sleep");
      int v = 0;
      for (int i = 0; i < 64; ++i) self.recv(&v, 4, 0, 1);
      EXPECT_EQ(v, 41);
    }
  });
  EXPECT_GT(world.fabric().counters().credit_stalls, 0u);
}

TEST(FailureInjection, ShmRingOverflowBackpressureCompletes) {
  WorldParams wp = backpressure_params(WorldParams::single_node(2));
  wp.fabric.shm_ring_capacity = 4;
  World world(2, wp);
  world.run([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    if (self.id() == 0) {
      for (int i = 0; i < 32; ++i)
        self.na().put_notify(*win, na::as_bytes(nullptr, 0), 1, 0, 1);
      win->flush(1);
    } else {
      self.ctx().yield_until(ms(10), "sleep");
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 1}, 32);
      self.na().start(req);
      self.na().wait(req);
    }
    self.barrier();
  });
  EXPECT_GT(world.fabric().counters().credit_stalls, 0u);
}

TEST(FailureInjection, ForcedPressureRetriesAndCompletes) {
  // pressure_rate = 1.0 makes every first delivery attempt observe a full
  // queue; every notification and control message must take exactly the
  // defer-once path and still land, in order, with the data intact.
  WorldParams wp = backpressure_params();
  wp.fabric.faults.pressure_rate = 1.0;
  World world(2, wp);
  world.run([](Rank& self) {
    double result = 0;
    {
      auto win = self.rma().create(&result, sizeof(double), sizeof(double));
      if (self.id() == 0) {
        double v = 6.25;
        self.na().put_notify(*win, na::as_bytes(&v, sizeof v), 1, 0, 3);
        win->flush(1);
      } else {
        auto req = self.na().notify_init(*win, na::MatchSpec{0, 3}, 1);
        self.na().start(req);
        self.na().wait(req);
        EXPECT_EQ(result, 6.25);
      }
      self.barrier();
    }
  });
  EXPECT_GT(world.fabric().counters().retries, 0u);
}

// --- Seeded fault-plan determinism -------------------------------------------

namespace {

struct FaultRunOutcome {
  std::vector<Time> times;
  std::uint64_t retries = 0;
  std::uint64_t drops = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t nic_stalls = 0;

  bool operator==(const FaultRunOutcome&) const = default;
};

/// All-to-next ring of notified puts under a fault-laden backpressure
/// config; returns everything that must be a pure function of the seed.
FaultRunOutcome run_faulty_ring(std::uint64_t seed) {
  WorldParams wp;
  wp.fabric.faults.overflow_policy = net::OverflowPolicy::kBackpressure;
  wp.fabric.faults.seed = seed;
  wp.fabric.faults.drop_rate = 0.05;
  wp.fabric.faults.delay_rate = 0.2;
  wp.fabric.faults.stall_rate = 0.05;
  wp.fabric.faults.pressure_rate = 0.1;
  World world(4, wp);
  world.run([](Rank& self) {
    auto win = self.win_allocate(4096, 1);
    const int dst = (self.id() + 1) % self.size();
    const int src = (self.id() + self.size() - 1) % self.size();
    auto req = self.na().notify_init(*win, na::MatchSpec{src, src}, 16);
    self.na().start(req);
    std::vector<std::byte> buf(256, std::byte{0x5a});
    for (int i = 0; i < 16; ++i)
      self.na().put_notify(*win, na::as_bytes(buf.data(), buf.size()), dst, 0, self.id());
    win->flush(dst);
    self.na().wait(req);
    self.barrier();
  });
  FaultRunOutcome o;
  for (int r = 0; r < 4; ++r) o.times.push_back(world.engine().rank(r).now());
  const net::FabricCounters& c = world.fabric().counters();
  o.retries = c.retries;
  o.drops = c.drops;
  o.credit_stalls = c.credit_stalls;
  o.nic_stalls = c.nic_stalls;
  return o;
}

}  // namespace

TEST(FailureInjection, SeededFaultPlanIsDeterministic) {
  const FaultRunOutcome a = run_faulty_ring(42);
  const FaultRunOutcome b = run_faulty_ring(42);
  EXPECT_EQ(a.times, b.times);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.credit_stalls, b.credit_stalls);
  EXPECT_EQ(a.nic_stalls, b.nic_stalls);
  // With these rates and 64 transfers, some fault must actually have fired.
  EXPECT_GT(a.drops + a.retries + a.nic_stalls, 0u);
  // A different seed names a different fault schedule.
  const FaultRunOutcome c = run_faulty_ring(7);
  EXPECT_NE(c, a);
}

// --- Bit-identity of the fault-free path -------------------------------------

TEST(FailureInjection, FaultFreeSchedulesAreBitIdentical) {
  // Property test over randomized schedules: with FaultParams at their
  // defaults (all rates zero), the fault machinery must not perturb virtual
  // time at all. Even trials pin repeatability (same schedule twice under
  // the default fatal policy); odd trials pin policy-independence (fatal vs
  // backpressure — with no overflow, credits never stall, so the virtual
  // times must be identical to the picosecond).
  auto run_once = [](int nops, std::uint32_t bytes, net::OverflowPolicy pol) {
    WorldParams wp;
    wp.fabric.faults.overflow_policy = pol;
    World world(2, wp);
    world.run([nops, bytes](Rank& self) {
      std::vector<std::byte> buf(4096, std::byte{1});
      auto win = self.win_allocate(8192, 1);
      if (self.id() == 0) {
        for (int i = 0; i < nops; ++i)
          self.na().put_notify(*win, na::as_bytes(buf.data(), bytes), 1, 0, 1);
        win->flush(1);
      } else {
        auto req = self.na().notify_init(*win, na::MatchSpec{0, 1}, nops);
        self.na().start(req);
        self.na().wait(req);
      }
      self.barrier();
    });
    EXPECT_EQ(world.fabric().counters().retries, 0u);
    EXPECT_EQ(world.fabric().counters().credit_stalls, 0u);
    return std::pair{world.engine().rank(0).now(),
                     world.engine().rank(1).now()};
  };

  Xoshiro256 rng(0xfa017);
  for (int trial = 0; trial < 1000; ++trial) {
    const int nops = 1 + static_cast<int>(rng.next_below(8));
    const auto bytes = static_cast<std::uint32_t>(1 + rng.next_below(4096));
    const auto a = run_once(nops, bytes, net::OverflowPolicy::kFatal);
    const auto b = run_once(nops, bytes,
                            trial % 2 ? net::OverflowPolicy::kBackpressure
                                      : net::OverflowPolicy::kFatal);
    ASSERT_EQ(a, b) << "trial " << trial << " nops=" << nops
                    << " bytes=" << bytes;
  }
}

// --- Fault-parameter validation ----------------------------------------------

TEST(FailureInjection, DelayRateWithZeroDelayMaxAborts) {
  // Regression: the jitter magnitude formula computes delay_max - 1 in
  // unsigned Time arithmetic; with delay_rate > 0 and delay_max == 0 a
  // drawn delay used to wrap to an astronomical value. The config is now
  // rejected at construction.
  WorldParams wp;
  wp.fabric.faults.delay_rate = 0.5;
  wp.fabric.faults.delay_max = 0;
  EXPECT_DEATH({ World world(2, wp); }, "delay_max must be >= 1");
}

// --- Transport x overflow-policy fault matrix --------------------------------
//
// The 4-rank notified stencil on every inter-node backend under both
// overflow policies, each cell with seeded drops, delays and stalls (plus
// forced queue pressure under backpressure). Injected faults never overflow
// a queue by themselves, so the fatal cells are legal. Every cell must
// verify, every complete traced message must decompose exactly into its
// end-to-end latency (across retry hops and RAMC's multi-leg notifications),
// and the backpressure cells must record retry time.

class FaultMatrix : public ::testing::TestWithParam<
                        std::tuple<net::BackendKind, net::OverflowPolicy>> {};

TEST_P(FaultMatrix, StencilVerifiesAndDecomposes) {
  const auto [backend, policy] = GetParam();
  const bool backpressure = policy == net::OverflowPolicy::kBackpressure;
  WorldParams wp;
  wp.fabric.inter_node = backend;
  net::FaultParams& f = wp.fabric.faults;
  f.overflow_policy = policy;
  f.seed = 42;
  f.drop_rate = 0.05;
  f.delay_rate = 0.2;
  f.stall_rate = 0.05;
  if (backpressure) f.pressure_rate = 0.1;
  wp.obs.msgtrace = true;
  World world(4, wp);
  apps::StencilConfig cfg;
  cfg.rows = 64;
  cfg.total_cols = 256;
  cfg.iters = 4;
  bool verified = false;
  world.run([&](Rank& self) {
    const auto r = apps::run_stencil(self, cfg);
    if (self.id() == 0) verified = r.verified;
  });
  EXPECT_TRUE(verified);
  int complete = 0;
  Time retry = 0;
  for (const auto& m : world.msgtrace()->summarize()) {
    if (!m.complete) continue;
    EXPECT_EQ(m.cat_sum(), m.latency()) << "msg " << m.id;
    retry += m.cat[static_cast<std::size_t>(obs::LatCat::kRetry)];
    ++complete;
  }
  EXPECT_GT(complete, 0);
  if (backpressure) {
    EXPECT_GT(retry, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendByPolicy, FaultMatrix,
    ::testing::Combine(::testing::Values(net::BackendKind::kAries,
                                         net::BackendKind::kRamc,
                                         net::BackendKind::kVerbs),
                       ::testing::Values(net::OverflowPolicy::kFatal,
                                         net::OverflowPolicy::kBackpressure)));

// --- Retry-budget parity (redelivery vs credit stall vs retransmit) ----------
//
// FaultParams::max_retries is the number of *retry* attempts after the first
// failure, on all three bounded-retry paths. The redelivery path used to
// allow one more attempt than the other two (`<=` vs `<`); these death tests
// pin the unified budget, down to the count in the message.

TEST(FailureInjection, RedeliveryRetryBudgetExhaustionIsFatal) {
  // Spill + redelivery runs when flow control is inactive (default kFatal
  // policy) but the backend absorbs overflow gracefully — RAMC here. The
  // consumer sleeps far past the whole backoff budget, so the spilled head
  // entry fails all of its retries.
  WorldParams wp;
  wp.fabric.inter_node = net::BackendKind::kRamc;
  wp.fabric.dest_cq_capacity = 8;
  wp.fabric.faults.max_retries = 3;
  EXPECT_DEATH(
      {
        World world(2, wp);
        world.run([](Rank& self) {
          auto win = self.win_allocate(8, 1);
          if (self.id() == 0) {
            for (int i = 0; i < 32; ++i)
              self.na().put_notify(*win, na::as_bytes(nullptr, 0), 1, 0, 1);
            win->flush(1);
          } else {
            self.ctx().yield_until(ms(10), "sleep");
          }
          self.barrier();
        });
      },
      "redelivery retry budget exhausted after 3 retries");
}

TEST(FailureInjection, CreditStallRetryBudgetExhaustionIsFatal) {
  // The same traffic under backpressure exhausts the sender-side credit
  // budget instead — with the identical attempt count.
  WorldParams wp = backpressure_params();
  wp.fabric.dest_cq_capacity = 8;
  wp.fabric.faults.max_retries = 3;
  EXPECT_DEATH(
      {
        World world(2, wp);
        world.run([](Rank& self) {
          auto win = self.win_allocate(8, 1);
          if (self.id() == 0) {
            for (int i = 0; i < 32; ++i)
              self.na().put_notify(*win, na::as_bytes(nullptr, 0), 1, 0, 1);
            win->flush(1);
          } else {
            self.ctx().yield_until(ms(10), "sleep");
          }
          self.barrier();
        });
      },
      "credit-stall retry budget exhausted after 3 retries");
}

TEST(FailureInjection, DropRateOneExhaustsRetryBudget) {
  // drop_rate == 1.0 names a plan where every flight of every transfer is
  // dropped; the retransmit loop must hit its budget deterministically, not
  // spin forever.
  WorldParams wp;
  wp.fabric.faults.drop_rate = 1.0;
  wp.fabric.faults.max_retries = 3;
  EXPECT_DEATH(
      {
        World world(2, wp);
        world.run([](Rank& self) {
          auto win = self.win_allocate(64, 1);
          if (self.id() == 0) {
            double v = 1.0;
            self.na().put_notify(*win, na::as_bytes(&v, sizeof v), 1, 0, 1);
            win->flush(1);
          }
          self.barrier();
        });
      },
      "retransmit retry budget exhausted after 3 retries");
}

// --- Per-queue credit triggers -----------------------------------------------

TEST(FailureInjection, MailboxSenderSurvivesHeavyDestCqTraffic) {
  // Regression for the spurious-wakeup churn: credit releases used to
  // notify a single per-destination trigger, so a sender blocked on
  // kMailbox credits was woken by every kDestCq drain at the same
  // destination, burning a bounded-retry attempt on a credit class that
  // never freed. Rank 0 blocks on mailbox credits to rank 1 while rank 2
  // blasts notified puts that rank 1 actively drains; with the old shared
  // trigger the CQ releases exhaust rank 0's small budget in a few
  // microseconds, with per-(dst, queue) triggers rank 0 sleeps through its
  // deadline schedule until the mailbox actually drains.
  WorldParams wp = backpressure_params();
  wp.fabric.mailbox_capacity = 4;
  wp.fabric.faults.max_retries = 12;
  World world(3, wp);
  world.run([](Rank& self) {
    auto win = self.win_allocate(64, 1);
    if (self.id() == 0) {
      int v = 7;
      for (int i = 0; i < 8; ++i) self.send(&v, 4, 1, 1);
    } else if (self.id() == 2) {
      for (int i = 0; i < 256; ++i)
        self.na().put_notify(*win, na::as_bytes(nullptr, 0), 1, 0, 2);
      win->flush(1);
    } else {
      // Drain the CQ storm first (a release per consumed notification),
      // only then the mailbox.
      auto req = self.na().notify_init(*win, na::MatchSpec{2, 2}, 256);
      self.na().start(req);
      self.na().wait(req);
      int v = 0;
      for (int i = 0; i < 8; ++i) self.recv(&v, 4, 0, 1);
      EXPECT_EQ(v, 7);
    }
    self.barrier();
  });
  EXPECT_GT(world.fabric().counters().credit_stalls, 0u);
}

// --- Fault-draw edge rates and independence ----------------------------------

namespace {

/// Two ranks, 16 notified puts, returns both ranks' final virtual times.
std::pair<Time, Time> run_jittered_pair(std::uint64_t seed, double delay_rate,
                                        Time delay_max) {
  WorldParams wp;
  wp.fabric.faults.seed = seed;
  wp.fabric.faults.delay_rate = delay_rate;
  wp.fabric.faults.delay_max = delay_max;
  World world(2, wp);
  world.run([](Rank& self) {
    auto win = self.win_allocate(256, 1);
    if (self.id() == 0) {
      std::vector<std::byte> buf(128, std::byte{0x2b});
      for (int i = 0; i < 16; ++i)
        self.na().put_notify(*win, na::as_bytes(buf.data(), buf.size()), 1, 0, 1);
      win->flush(1);
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 1}, 16);
      self.na().start(req);
      self.na().wait(req);
    }
    self.barrier();
  });
  return {world.engine().rank(0).now(), world.engine().rank(1).now()};
}

}  // namespace

TEST(FailureInjection, DelayMaxOneJitterIsExactlyOne) {
  // With delay_rate == 1.0 the jitter gate fires for every transfer
  // regardless of the drawn uniform, and with delay_max == 1 the magnitude
  // formula collapses to exactly 1 ps — so the whole schedule is
  // independent of the seed, and sits strictly after the fault-free one.
  const auto base = run_jittered_pair(1, 0.0, us(2));
  const auto a = run_jittered_pair(1, 1.0, 1);
  const auto b = run_jittered_pair(999, 1.0, 1);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.first, base.first);
  EXPECT_GT(a.second, base.second);
}

TEST(FailureInjection, PerRankDrawsAreIndependent) {
  // The fault plan is counter-based per rank: interleaving another rank's
  // draws must not shift a rank's own sequence (no shared RNG stream).
  net::FaultParams fp;
  fp.seed = 77;
  fp.drop_rate = 0.3;
  fp.delay_rate = 0.3;
  fp.stall_rate = 0.3;
  fp.pressure_rate = 0.3;
  net::FaultInjector a(fp, 2);
  net::FaultInjector b(fp, 2);
  for (int i = 0; i < 64; ++i) {
    const auto fa = a.next_transfer(0);
    (void)b.next_transfer(1);  // interleaved rank-1 draws, absent in `a`
    (void)b.next_pressure(1);
    const auto fb = b.next_transfer(0);
    ASSERT_EQ(fa.drop, fb.drop) << "draw " << i;
    ASSERT_EQ(fa.extra_delay, fb.extra_delay) << "draw " << i;
    ASSERT_EQ(fa.stall, fb.stall) << "draw " << i;
  }

  // fail_draw is stateless: re-evaluation is free of side effects on the
  // per-transfer sequences, repeatable, and varies with (rank, epoch).
  fp.fail_rate = 0.5;
  net::FaultInjector c(fp, 8);
  net::FaultInjector d(fp, 8);
  (void)c.next_transfer(0);
  (void)d.next_transfer(0);
  bool varies = false;
  for (int r = 0; r < 8; ++r)
    for (std::uint64_t e = 0; e < 16; ++e) {
      ASSERT_EQ(c.fail_draw(r, e), c.fail_draw(r, e));
      ASSERT_EQ(c.fail_draw(r, e), d.fail_draw(r, e));
      varies = varies || c.fail_draw(r, e) != c.fail_draw(0, 0);
    }
  EXPECT_TRUE(varies);  // rate 0.5 over 128 coordinates: both outcomes occur
  const auto f1 = c.next_transfer(0);
  const auto f2 = d.next_transfer(0);
  EXPECT_EQ(f1.drop, f2.drop);
  EXPECT_EQ(f1.extra_delay, f2.extra_delay);
  EXPECT_EQ(f1.stall, f2.stall);
}
