// Tests of the fabric's transport routing: shm within a node, Aries FMA/BTE
// across nodes (the paper's Table I); per-channel FIFO and per-backend
// notification metrics in a job that mixes the two; and the headline
// invariant — every one of the 1000 randomized schedules reproduces its
// pinned hash, bit for bit — plus the hermeticity of World: no environment
// variable overrides its params.
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
// Bit-identity: no fabric change may move a single virtual-time tick. Each
// of the 1000 randomized schedules is checked against its pinned hash (see
// golden_schedule.hpp), so a failure names the first schedule that moved
// and its shape; the fold of all of them is the golden hash. Sanitizer and
// debug builds run the 100-schedule prefix to stay fast.
// ---------------------------------------------------------------------------

TEST(TransportGolden, EverySeedMatchesItsPinnedHash) {
#ifdef NDEBUG
  constexpr std::uint64_t n = golden::kGoldenScheduleCount;
  constexpr std::uint64_t want_fold = golden::kGoldenScheduleHash;
#else
  constexpr std::uint64_t n = golden::kGoldenScheduleCountShort;
  constexpr std::uint64_t want_fold = golden::kGoldenScheduleHashShort;
#endif
  std::uint64_t fold = golden::kFnvOffset;
  for (std::uint64_t seed = 1; seed <= n; ++seed) {
    const std::uint64_t h = golden::schedule_hash(seed);
    const std::uint64_t want = golden::kGoldenSeedHashes[seed - 1];
    ASSERT_EQ(h, want) << "first diverging schedule: "
                       << golden::describe_seed(seed) << std::hex
                       << " (hash 0x" << h << ", pinned 0x" << want << ")";
    fold = golden::fnv_fold(fold, h);
  }
  EXPECT_EQ(fold, want_fold);
}

// A World runs on exactly the params it is given: with every variable that
// once overrode a WorldParams or FtParams field set to a non-default value,
// params() still equals what was passed and the golden schedules are
// unchanged. The variables are cleared again for the tests that follow.
TEST(TransportGolden, EnvironmentOverridesNothing) {
  static constexpr std::pair<const char*, const char*> kEnv[] = {
      {"NARMA_STACK_KB", "64"},
      {"NARMA_OVERFLOW", "backpressure"},
      {"NARMA_TRANSPORT", "shm"},
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
    EXPECT_EQ(p.fabric.aries.fma_bte_threshold,
              given.fabric.aries.fma_bte_threshold);
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
// Mixed job: six ranks on three nodes, so rank 0 hears from one shm peer
// and four Aries peers. Per-source FIFO must hold on every channel, and
// each backend's notification counter must account for exactly its own
// traffic.
// ---------------------------------------------------------------------------

TEST(TransportMixed, ShmAndAriesFifoAndMetrics) {
  constexpr int kRanks = 6;
  constexpr int kMsgs = 8;
  WorldParams wp;
  wp.fabric.ranks_per_node = 2;  // nodes {0,1} {2,3} {4,5}
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
  // Per-backend notification counters at the consumer: rank 1 is
  // intra-node (shm ring), ranks 2-5 arrive on the destination CQ.
  obs::Registry* reg = world.metrics();
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->counter_value("net.shm_notifs", 0), 1u * kMsgs);
  EXPECT_EQ(reg->counter_value("net.aries_notifs", 0), 4u * kMsgs);
  // And the fabric-wide notification counter sees every one of them.
  EXPECT_EQ(world.fabric().counters().notifications,
            static_cast<std::uint64_t>((kRanks - 1) * kMsgs));
}

// ---------------------------------------------------------------------------
// Per-lane LogGP decomposition: the msgtrace telescoping identity
// (cat_sum == end-to-end latency) must hold on the shm ring and on both
// Aries lanes.
// ---------------------------------------------------------------------------

TEST(TransportMixed, MsgTraceIdentityHoldsPerLane) {
  WorldParams wp;
  wp.fabric.ranks_per_node = 2;
  wp.obs.msgtrace = true;
  World world(6, wp);
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
      // Three sizes per producer: small (shm inline / FMA), medium, and
      // large (BTE at the default 4096-byte threshold).
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
