// Tests of the TransportBackend layer (src/net/backend.*): routing of rank
// pairs onto per-channel backends, heterogeneous jobs mixing three fabrics,
// backend-tagged notification metrics, per-backend notification semantics
// (RAMC counting completions, verbs write-with-immediate), and the headline
// refactor invariant — the default shm+Aries configuration is bit-identical
// to the pre-backend fabric over the 1000-schedule property harness — and
// the hermeticity of World: no environment variable overrides its params.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/world.hpp"
#include "golden_schedule.hpp"
#include "obs/msgtrace.hpp"

using namespace narma;

// ---------------------------------------------------------------------------
// Bit-identity: the backend refactor must not move a single virtual-time
// tick on the default path. The golden hash was captured from the
// pre-refactor tree over 1000 randomized schedules (see golden_schedule.hpp);
// sanitizer/debug builds run the 100-schedule prefix to stay fast.
// ---------------------------------------------------------------------------

TEST(TransportGolden, DefaultBackendBitIdenticalToPreRefactorFabric) {
#ifdef NDEBUG
  EXPECT_EQ(golden::all_schedules_hash(golden::kGoldenScheduleCount),
            golden::kGoldenScheduleHash);
#else
  EXPECT_EQ(golden::all_schedules_hash(golden::kGoldenScheduleCountShort),
            golden::kGoldenScheduleHashShort);
#endif
}

// A World runs on exactly the params it is given: with every variable that
// once overrode a WorldParams or FtParams field set to a non-default value,
// params() still equals what was passed and the golden schedules are
// unchanged. The variables are cleared again for the tests that follow.
TEST(TransportGolden, EnvironmentOverridesNothing) {
  static constexpr std::pair<const char*, const char*> kEnv[] = {
      {"NARMA_STACK_KB", "64"},
      {"NARMA_OVERFLOW", "backpressure"},
      {"NARMA_TRANSPORT", "verbs"},
      {"NARMA_FAULT_SEED", "7"},
      {"NARMA_FAULT_DROP", "0.05"},
      {"NARMA_FAULT_DELAY", "0.3"},
      {"NARMA_FAULT_STALL", "0.05"},
      {"NARMA_FAULT_PRESSURE", "0.1"},
      {"NARMA_FT_FAIL_RATE", "0.5"},
      {"NARMA_FT_MAX_FAILS", "3"},
      {"NARMA_OBS_JOURNAL_CAP", "16"},
      {"NARMA_FT", "1"},
      {"NARMA_FT_RECOVER", "0"},
      {"NARMA_FT_INTERVAL", "7"},
      {"NARMA_FT_PARTNER_OFFSET", "2"},
      {"NARMA_FT_RESTART_US", "99"},
      {"NARMA_FT_MIN_FAIL_EPOCH", "5"},
      {"NARMA_FT_LOG_CAP", "8"},
      {"NARMA_FT_TRIM", "0"},
  };
  for (const auto& [name, value] : kEnv) ::setenv(name, value, 1);
  const WorldParams given;
  {
    World world(2, given);
    const WorldParams& p = world.params();
    EXPECT_EQ(p.sim.stack_bytes, given.sim.stack_bytes);
    EXPECT_EQ(p.fabric.inter_node, given.fabric.inter_node);
    const net::FaultParams& f = p.fabric.faults;
    const net::FaultParams& g = given.fabric.faults;
    EXPECT_EQ(f.overflow_policy, g.overflow_policy);
    EXPECT_EQ(f.seed, g.seed);
    EXPECT_EQ(f.drop_rate, g.drop_rate);
    EXPECT_EQ(f.delay_rate, g.delay_rate);
    EXPECT_EQ(f.stall_rate, g.stall_rate);
    EXPECT_EQ(f.pressure_rate, g.pressure_rate);
    EXPECT_EQ(f.fail_rate, g.fail_rate);
    EXPECT_EQ(f.max_fails, g.max_fails);
    EXPECT_EQ(p.obs.journal_capacity, given.obs.journal_capacity);
  }
  EXPECT_EQ(golden::all_schedules_hash(golden::kGoldenScheduleCountShort),
            golden::kGoldenScheduleHashShort);
  for (const auto& [name, value] : kEnv) ::unsetenv(name);
}

// ---------------------------------------------------------------------------
// Routing policy.
// ---------------------------------------------------------------------------

TEST(TransportRouting, ExplicitAriesRouteMatchesDefault) {
  // Forcing every inter-node pair through the route callback (returning the
  // same backend the default would pick) must not change any virtual time:
  // the route map only *selects* backends, it is not a cost.
  const auto run = [](bool with_route) {
    WorldParams wp;
    wp.fabric.ranks_per_node = 2;
    if (with_route)
      wp.fabric.route = [](int, int) { return net::BackendKind::kAries; };
    World world(4, wp);
    std::vector<Time> finals(4, 0);
    world.run([&finals](Rank& self) {
      auto win = self.win_allocate(4096, 1);
      const int right = (self.id() + 1) % self.size();
      const int left = (self.id() + 3) % self.size();
      std::vector<double> buf(512, 1.0 + self.id());
      for (int it = 0; it < 3; ++it) {
        self.na().put_notify(*win, na::as_bytes(buf.data(), 4096), right, 0,
                             it);
        win->flush(right);
        auto req = self.na().notify_init(*win, na::MatchSpec{left, it}, 1);
        self.na().start(req);
        self.na().wait(req);
        self.na().free(req);
      }
      self.barrier();
      finals[static_cast<std::size_t>(self.id())] = self.now();
    });
    return finals;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(TransportRouting, RamcAndVerbsDifferFromAries) {
  // Each backend carries its own LogGP table and notification costs, so the
  // same workload must finish at distinct virtual times per backend.
  const auto run = [](net::BackendKind inter) {
    WorldParams wp;
    wp.fabric.inter_node = inter;
    World world(2, wp);
    Time complete = 0;
    world.run([&complete](Rank& self) {
      auto win = self.win_allocate(8192, 1);
      std::vector<double> buf(1024, 2.0);
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 7}, 1);
      self.barrier();
      if (self.id() == 0) {
        self.na().put_notify(*win, na::as_bytes(buf.data(), 8192), 1, 0, 7);
        win->flush(1);
      } else {
        self.na().start(req);
        self.na().wait(req);
        complete = self.now();
      }
      self.barrier();
    });
    return complete;
  };
  const Time aries = run(net::BackendKind::kAries);
  const Time ramc = run(net::BackendKind::kRamc);
  const Time verbs = run(net::BackendKind::kVerbs);
  EXPECT_NE(aries, ramc);
  EXPECT_NE(aries, verbs);
  EXPECT_NE(ramc, verbs);
}

// ---------------------------------------------------------------------------
// Heterogeneous three-fabric job: six ranks on three nodes, shm inside a
// node, RAMC between nodes 0 and 1, verbs for every pair touching node 2 —
// all in one World. Per-source FIFO must hold on every channel regardless
// of which backend carries it, and each backend's notification counter must
// account for exactly its own traffic.
// ---------------------------------------------------------------------------

TEST(TransportHeterogeneous, ThreeFabricFifoAndMetrics) {
  constexpr int kRanks = 6;
  constexpr int kMsgs = 8;
  WorldParams wp;
  wp.fabric.ranks_per_node = 2;  // nodes {0,1} {2,3} {4,5}
  wp.fabric.route = [](int a, int b) {
    return (a <= 1 && b <= 1) ? net::BackendKind::kRamc
                              : net::BackendKind::kVerbs;
  };
  World world(kRanks, wp);
  // tags_seen[src][i]: i-th notification tag rank 0 matched from src.
  std::array<std::vector<int>, kRanks> tags_seen;
  bool data_ok = true;
  world.run([&](Rank& self) {
    auto win = self.win_allocate(kRanks * kMsgs * 8, 1);
    self.barrier();
    if (self.id() == 0) {
      // One wildcard-tag request per producer; per-source arrival order is
      // the per-channel FIFO order, so tags must come out 0,1,2,...
      for (int src = 1; src < kRanks; ++src) {
        auto req = self.na().notify_init(
            *win, na::MatchSpec{src, na::kAnyTag}, 1);
        for (int i = 0; i < kMsgs; ++i) {
          self.na().start(req);
          na::NaStatus st;
          self.na().wait(req, &st);
          tags_seen[static_cast<std::size_t>(src)].push_back(st.tag);
        }
        self.na().free(req);
      }
      const double* slots = reinterpret_cast<const double*>(win->base());
      for (int src = 1; src < kRanks; ++src)
        for (int i = 0; i < kMsgs; ++i)
          if (slots[(src - 1) * kMsgs + i] != src * 100.0 + i)
            data_ok = false;
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        const double v = self.id() * 100.0 + i;
        const std::uint64_t disp =
            static_cast<std::uint64_t>((self.id() - 1) * kMsgs + i) * 8;
        self.na().put_notify(*win, na::as_bytes(&v, 8), 0, disp, i);
        win->flush(0);
      }
    }
    self.barrier();
  });
  EXPECT_TRUE(data_ok);
  for (int src = 1; src < kRanks; ++src) {
    ASSERT_EQ(tags_seen[static_cast<std::size_t>(src)].size(),
              static_cast<std::size_t>(kMsgs));
    for (int i = 0; i < kMsgs; ++i)
      EXPECT_EQ(tags_seen[static_cast<std::size_t>(src)][i], i)
          << "FIFO violated on channel " << src << " -> 0";
  }
  // Backend-tagged notification counters at the consumer: rank 1 is
  // intra-node (shm), ranks 2-3 arrive via RAMC, ranks 4-5 via verbs. The
  // Aries family is not even registered in this route.
  obs::Registry* reg = world.metrics();
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->counter_value("net.shm_notifs", 0), 1u * kMsgs);
  EXPECT_EQ(reg->counter_value("net.ramc_notifs", 0), 2u * kMsgs);
  EXPECT_EQ(reg->counter_value("net.verbs_notifs", 0), 2u * kMsgs);
  EXPECT_EQ(reg->counter_value("net.aries_notifs", 0), 0u);
  // And the fabric-wide notification counter sees every one of them.
  EXPECT_EQ(world.fabric().counters().notifications,
            static_cast<std::uint64_t>((kRanks - 1) * kMsgs));
}

// ---------------------------------------------------------------------------
// Per-backend LogGP decomposition: the msgtrace telescoping identity
// (cat_sum == end-to-end latency) must hold for RAMC's two-leg counting
// notifications and verbs write-with-immediate exactly as it does for
// Aries CQEs.
// ---------------------------------------------------------------------------

TEST(TransportHeterogeneous, MsgTraceIdentityHoldsPerBackend) {
  WorldParams wp;
  wp.fabric.ranks_per_node = 2;
  wp.fabric.route = [](int a, int b) {
    return (a <= 1 && b <= 1) ? net::BackendKind::kRamc
                              : net::BackendKind::kVerbs;
  };
  World world(6, wp);
  world.enable_msgtrace();
  world.run([](Rank& self) {
    auto win = self.win_allocate(1 << 16, 1);
    self.barrier();
    if (self.id() == 0) {
      auto req =
          self.na().notify_init(*win, na::MatchSpec::any(), 3 * 5);
      self.na().start(req);
      self.na().wait(req);
      self.na().free(req);
    } else {
      // Three sizes per producer: small (RAMC IDC / shm inline), medium,
      // and large (RAMC DMA lane) so both lanes of the two-lane backend
      // get decomposed.
      std::vector<double> buf(1024, 1.5);
      const std::size_t sizes[3] = {8, 512, 4096};
      for (int i = 0; i < 3; ++i) {
        self.na().put_notify(*win, na::as_bytes(buf.data(), sizes[i]), 0,
                             static_cast<std::uint64_t>(self.id()) * 8192,
                             i);
        win->flush(0);
      }
    }
    self.barrier();
  });
  int checked = 0;
  for (const auto& m : world.msgtrace()->summarize()) {
    if (!m.complete) continue;
    EXPECT_EQ(m.cat_sum(), m.latency()) << "msg " << m.id;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------------
// Guard rails.
// ---------------------------------------------------------------------------

TEST(TransportRouting, ZeroRanksPerNodeIsFatal) {
  WorldParams wp;
  wp.fabric.ranks_per_node = 0;
  EXPECT_DEATH({ World world(2, wp); }, "ranks_per_node");
}

TEST(TransportRouting, ShmForInterNodePairIsFatal) {
  WorldParams wp;
  wp.fabric.ranks_per_node = 1;
  wp.fabric.route = [](int, int) { return net::BackendKind::kShm; };
  EXPECT_DEATH({ World world(2, wp); }, "shm backend");
}
