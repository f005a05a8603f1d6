// Fail/rejoin recovery protocol tests (src/ft, DESIGN.md §15): partner
// checkpointing, notification-log replay with epoch/seq dedupe, the seeded
// fail-stop plan, dead-rank channel semantics, and the journal's recovery
// records. The app-level tests drive the stencil and tree through their
// fault-tolerant paths and require the recovered run to verify against the
// same analytic value as a fault-free run — recovery must be bit-exact, not
// merely "close". The log itself is pinned too: its wire bytes, payload
// sizes across every boundary, and zero allocations per logged put.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "apps/stencil.hpp"
#include "apps/tree.hpp"
#include "core/world.hpp"
#include "ft/recovery.hpp"
#include "net/faults.hpp"

using namespace narma;

namespace {

/// Searches for a seed whose fail plan kills exactly `victim` at `epoch`:
/// the runtime victim scan takes the first rank in 0..n-1 order whose draw
/// fires, so no earlier rank may draw true at that epoch. This is how the
/// recovery bench pins its victim too — the test stays valid under any
/// change to the hash as long as the plan remains seeded.
std::uint64_t pin_fail_seed(int nranks, int victim, std::uint64_t epoch,
                            double rate) {
  for (std::uint64_t seed = 1;; ++seed) {
    net::FaultParams fp;
    fp.seed = seed;
    fp.fail_rate = rate;
    net::FaultInjector inj(fp, nranks);
    bool earlier = false;
    for (int r = 0; r < victim; ++r) earlier = earlier || inj.fail_draw(r, epoch);
    if (!earlier && inj.fail_draw(victim, epoch)) return seed;
  }
}

constexpr int kRanks = 4;
constexpr int kVictim = 2;
constexpr std::uint64_t kFailEpoch = 3;
constexpr double kFailRate = 0.2;

struct FtRunOutcome {
  apps::StencilResult r0;        // rank 0's result (corner, verified)
  ft::FtStats victim;            // the failed rank's recovery stats
  std::vector<Time> times;      // per-rank final virtual times
  std::vector<obs::Journal::Record> journal;
};

/// 32x16 notified stencil over 4 ranks, 5 iterations (= recovery epochs),
/// fail pinned to rank 2 at the end of epoch 3. fail_rate == 0 gives the
/// fault-free control run of the same ft-enabled code path.
FtRunOutcome run_ft_stencil(int ckpt_interval, bool eager_trim,
                            double fail_rate) {
  WorldParams wp;
  wp.fabric.faults.fail_rate = fail_rate;
  if (fail_rate > 0)
    wp.fabric.faults.seed = pin_fail_seed(kRanks, kVictim, kFailEpoch, fail_rate);

  apps::StencilConfig cfg;
  cfg.rows = 32;
  cfg.total_cols = 16;
  cfg.iters = 5;
  cfg.variant = apps::StencilVariant::kNotified;
  cfg.per_point = ns(2);  // calibrated cost: virtual times stay deterministic
  cfg.ft.enabled = true;
  cfg.ft.ckpt_interval = ckpt_interval;
  cfg.ft.eager_trim = eager_trim;
  cfg.ft.min_fail_epoch = kFailEpoch;

  FtRunOutcome out;
  World world(kRanks, wp);
  world.run([&](Rank& self) {
    apps::StencilResult r = apps::run_stencil(self, cfg);
    if (self.id() == 0) out.r0 = r;
    if (r.ft.fails > 0) out.victim = r.ft;
  });
  for (int r = 0; r < kRanks; ++r)
    out.times.push_back(world.engine().rank(r).now());
  if (world.journal()) out.journal = world.journal()->records();
  return out;
}

}  // namespace

TEST(FtRecovery, StencilFailStopRecoversBitIdentical) {
  const FtRunOutcome faulty = run_ft_stencil(2, true, kFailRate);
  const FtRunOutcome clean = run_ft_stencil(2, true, 0.0);

  // The pinned plan fired exactly once, on the pinned rank.
  EXPECT_EQ(faulty.victim.fails, 1u);
  EXPECT_EQ(faulty.victim.victim, kVictim);
  // interval 2 with a fail at the end of epoch 3: checkpoints at 0 and 2,
  // so the victim rolls back to 2 and replays exactly epoch 3's arrivals —
  // rows - 1 ghost cells from its left neighbor.
  EXPECT_EQ(faulty.victim.restored_epoch, 2u);
  EXPECT_EQ(faulty.victim.replay_applied, 31u);
  EXPECT_EQ(faulty.victim.replay_dupes, 0u);  // eager trim: nothing stale
  EXPECT_GT(faulty.victim.recovery_time, 0);
  EXPECT_GE(faulty.victim.ckpts, 3u);  // epochs 0, 2, 4

  // Recovery is bit-exact: the corner matches both the analytic value and
  // the fault-free run of the identical configuration.
  EXPECT_TRUE(faulty.r0.verified);
  EXPECT_TRUE(clean.r0.verified);
  EXPECT_EQ(faulty.r0.corner, clean.r0.corner);
  EXPECT_EQ(clean.victim.fails, 0u);
}

TEST(FtRecovery, FailStopScheduleIsDeterministic) {
  // Same seed, same plan: two runs agree to the picosecond, including the
  // outage and replay.
  const FtRunOutcome a = run_ft_stencil(2, true, kFailRate);
  const FtRunOutcome b = run_ft_stencil(2, true, kFailRate);
  EXPECT_EQ(a.times, b.times);
  EXPECT_EQ(a.r0.corner, b.r0.corner);
  EXPECT_EQ(a.victim.restored_epoch, b.victim.restored_epoch);
  EXPECT_EQ(a.victim.replay_applied, b.victim.replay_applied);
  EXPECT_EQ(a.victim.recovery_time, b.victim.recovery_time);
}

TEST(FtRecovery, LazyTrimIsDedupedAtReplay) {
  // With eager_trim off, peers keep logged entries from already-checkpointed
  // epochs; the victim's epoch dedupe must reject them while still applying
  // the genuinely lost epoch. interval 1: restored epoch is 2 (the fail
  // check runs before the boundary's own checkpoint), epochs 1 and 2 are
  // stale in the log — 62 rejected entries, 31 applied.
  const FtRunOutcome o = run_ft_stencil(1, false, kFailRate);
  EXPECT_EQ(o.victim.fails, 1u);
  EXPECT_EQ(o.victim.restored_epoch, 2u);
  EXPECT_EQ(o.victim.replay_applied, 31u);
  EXPECT_GT(o.victim.replay_dupes, 0u);
  EXPECT_TRUE(o.r0.verified);
}

TEST(FtRecovery, JournalRecordsRecoveryTimeline) {
  const FtRunOutcome o = run_ft_stencil(2, true, kFailRate);
  ASSERT_FALSE(o.journal.empty());
  Time t_fail = -1, t_rejoin = -1;
  std::size_t ckpts = 0, replays = 0;
  for (const obs::Journal::Record& r : o.journal) {
    switch (r.kind) {
      case obs::JournalKind::kRankFail:
        EXPECT_EQ(r.rank, kVictim);
        EXPECT_EQ(r.a, kFailEpoch);
        t_fail = r.t;
        break;
      case obs::JournalKind::kRankRejoin:
        EXPECT_EQ(r.rank, kVictim);
        EXPECT_EQ(r.a, 2u);  // restored epoch
        t_rejoin = r.t;
        break;
      case obs::JournalKind::kCkptEpoch: ++ckpts; break;
      case obs::JournalKind::kReplay: ++replays; break;
      default: break;
    }
  }
  ASSERT_GE(t_fail, 0);
  ASSERT_GE(t_rejoin, 0);
  EXPECT_GT(t_rejoin, t_fail);  // fail strictly precedes rejoin
  EXPECT_GT(ckpts, 0u);
  EXPECT_GT(replays, 0u);
}

TEST(FtRecovery, TreeFailStopRecovers) {
  // Six ranks, arity 2: rank 1 has children 3 and 4, so its lost landing
  // zones are rebuilt from two replayed entries per lost epoch.
  WorldParams wp;
  wp.fabric.faults.fail_rate = kFailRate;
  wp.fabric.faults.seed = pin_fail_seed(6, 1, kFailEpoch, kFailRate);

  apps::TreeConfig cfg;
  cfg.elems = 8;
  cfg.arity = 2;
  cfg.reps = 5;
  cfg.variant = apps::TreeVariant::kNotified;
  cfg.ft.enabled = true;
  cfg.ft.ckpt_interval = 2;
  cfg.ft.min_fail_epoch = kFailEpoch;

  apps::TreeResult r0;
  ft::FtStats victim;
  World world(6, wp);
  world.run([&](Rank& self) {
    apps::TreeResult r = apps::run_tree(self, cfg);
    if (self.id() == 0) r0 = r;
    if (r.ft.fails > 0) victim = r.ft;
  });
  EXPECT_EQ(victim.fails, 1u);
  EXPECT_EQ(victim.victim, 1);
  EXPECT_EQ(victim.restored_epoch, 2u);
  EXPECT_GT(victim.replay_applied, 0u);
  EXPECT_TRUE(r0.verified);
  EXPECT_EQ(r0.result0, 21.0);  // 6*7/2
}

TEST(FtRecovery, NoRecoverVictimStaysDown) {
  // recover = false is crash semantics: the victim's channels stay down and
  // the survivors' next collective trips the deadlock detector instead of
  // hanging forever.
  EXPECT_DEATH(
      {
        WorldParams wp;
        wp.fabric.faults.fail_rate = 1.0;  // rank 0 dies at the first epoch
        apps::StencilConfig cfg;
        cfg.rows = 8;
        cfg.total_cols = 8;
        cfg.iters = 3;
        cfg.variant = apps::StencilVariant::kNotified;
        cfg.ft.enabled = true;
        cfg.ft.recover = false;
        World world(2, wp);
        world.run([&](Rank& self) { apps::run_stencil(self, cfg); });
      },
      "simulation deadlock");
}

TEST(FtRecovery, LogOverflowPastTheBoundIsFatal) {
  // With no checkpoint to trim it, the log holds exactly kLogCapacity
  // entries; the next logged put aborts instead of dropping an entry a
  // future replay would need.
  const std::string diagnostic =
      "notification log overflow at rank 0 \\(" +
      std::to_string(ft::RecoveryManager::kLogCapacity) + " entries";
  EXPECT_DEATH(
      {
        World world(2);
        world.run([](Rank& self) {
          auto win = self.win_allocate(8, 1);
          ft::FtParams fp;
          fp.enabled = true;
          ft::RecoveryManager mgr(self, fp, {win.get()});
          if (self.id() == 0) {
            for (std::size_t i = 0; i <= ft::RecoveryManager::kLogCapacity;
                 ++i)
              mgr.put_notify(0, {}, 1, 0, 1);
          }
          self.barrier();
        });
      },
      diagnostic);
}

TEST(FtRecovery, DeadRankDeliveriesAreDropped) {
  // The fabric-level contract recovery is built on: deliveries into a down
  // rank evaporate (counted, credits released, sender acks intact) instead
  // of aborting the simulation.
  World world(2);
  world.run([](Rank& self) {
    auto win = self.win_allocate(64, 1);
    if (self.id() == 0) {
      // Quiesce before the down-transition, like the recovery protocol's
      // epoch barrier: rank 1 confirms it is past the collective, plus a
      // grace period for tail traffic still on the wire — marking a rank
      // down while messages to it are in flight swallows those too (that is
      // the semantics under test, but not the point of *this* test).
      int ready = 0;
      self.recv(&ready, 4, 1, 3);
      self.ctx().yield_until(self.now() + us(5), "grace");
      self.world().fabric().set_rank_down(1);
      double v = 2.5;
      self.na().put_notify(*win, na::as_bytes(&v, sizeof v), 1, 0, 1);
      win->flush(1);  // completes: the sender-side ack survives the drop
      self.world().fabric().set_rank_up(1);
      int go = 1;
      self.send(&go, 4, 1, 2);
    } else {
      int ready = 1;
      self.send(&ready, 4, 0, 3);
      int go = 0;
      self.recv(&go, 4, 0, 2);
      EXPECT_EQ(go, 1);
    }
    self.barrier();
  });
  EXPECT_GT(world.fabric().counters().dead_drops, 0u);
  EXPECT_TRUE(world.fabric().rank_up(1));
}

namespace {

/// Each epoch every rank writes payloads of 0, 8, 16, 17 and 4096 bytes into
/// a fresh region of its right neighbour's protected window, through the
/// notification log. With a fail-stop pinned to kVictim at kFailEpoch, the
/// victim's region for that epoch exists only in its peers' logs, so a
/// replay that drops, truncates or misplaces any payload leaves a byte
/// different from the fault-free run. Returns every rank's window bytes
/// and the victim's stats.
std::pair<std::vector<std::vector<std::byte>>, ft::FtStats> run_payload_ring(
    double fail_rate) {
  constexpr std::size_t kSizes[] = {0, 8, 16, 17, 4096};
  constexpr std::size_t kPerEpoch = 0 + 8 + 16 + 17 + 4096;
  constexpr int kEpochs = 4;
  WorldParams wp;
  wp.fabric.faults.fail_rate = fail_rate;
  if (fail_rate > 0)
    wp.fabric.faults.seed =
        pin_fail_seed(kRanks, kVictim, kFailEpoch, fail_rate);
  ft::FtParams fp;
  fp.enabled = true;
  fp.ckpt_interval = 2;
  fp.min_fail_epoch = kFailEpoch;

  std::vector<std::vector<std::byte>> windows(kRanks);
  ft::FtStats victim;
  World world(kRanks, wp);
  world.run([&](Rank& self) {
    const int right = (self.id() + 1) % kRanks;
    const int left = (self.id() + kRanks - 1) % kRanks;
    auto win = self.win_allocate(kEpochs * kPerEpoch, 1);
    ft::RecoveryManager mgr(self, fp, {win.get()});
    auto req = self.na().notify_init(*win, na::MatchSpec{left, 1},
                                     std::size(kSizes));
    std::vector<std::byte> src(4096);
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      self.na().start(req);
      std::uint64_t disp = static_cast<std::uint64_t>(epoch) * kPerEpoch;
      for (const std::size_t bytes : kSizes) {
        for (std::size_t i = 0; i < bytes; ++i)
          src[i] = static_cast<std::byte>(31 * self.id() + 7 * epoch +
                                          static_cast<int>(i + bytes));
        mgr.put_notify(0, {src.data(), bytes}, right, disp, 1);
        win->flush(right);  // `src` is refilled for the next size
        disp += bytes;
      }
      self.na().wait(req);
      ASSERT_TRUE(mgr.end_epoch());
    }
    const auto* base = static_cast<const std::byte*>(win->base());
    windows[static_cast<std::size_t>(self.id())].assign(base,
                                                        base + win->bytes());
    if (mgr.stats().fails > 0) victim = mgr.stats();
  });
  return {windows, victim};
}

}  // namespace

TEST(FtRecovery, ReplayedPayloadsOfEverySizeAreBitIdentical) {
  const auto [faulty, victim] = run_payload_ring(kFailRate);
  const auto [clean, none] = run_payload_ring(0.0);
  EXPECT_EQ(victim.fails, 1u);
  EXPECT_EQ(victim.restored_epoch, 2u);
  EXPECT_EQ(victim.replay_applied, 5u);  // epoch 3: one put per size
  EXPECT_EQ(none.fails, 0u);
  for (int r = 0; r < kRanks; ++r)
    EXPECT_EQ(faulty[static_cast<std::size_t>(r)],
              clean[static_cast<std::size_t>(r)])
        << "rank " << r;
}

TEST(FtRecovery, SerializedLogBytesArePinned) {
  static_assert(std::endian::native == std::endian::little,
                "the pinned image below is little-endian");
  std::vector<std::byte> image;
  World world(2);
  world.run([&](Rank& self) {
    auto win = self.win_allocate(64, 8);  // disp unit 8: byte offset 8*disp
    ft::FtParams fp;
    fp.enabled = true;
    ft::RecoveryManager mgr(self, fp, {win.get()});
    if (self.id() == 0) {
      const std::uint8_t three[] = {0xAA, 0xBB, 0xCC};
      mgr.put_notify(0, {}, 1, 2, 5);
      mgr.put_notify(0, na::as_bytes(three, sizeof three), 1, 3, 6);
      win->flush(1);
      const std::span<const std::byte> log = mgr.serialize_log(1);
      image.assign(log.begin(), log.end());
      EXPECT_TRUE(mgr.serialize_log(0).empty());
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, na::kAnyTag}, 2);
      self.na().start(req);
      self.na().wait(req);
    }
    self.barrier();
  });
  // Per entry: epoch, seq, tag << 32 | win_idx, disp_bytes, payload length
  // (five u64s), then the payload.
  const std::uint8_t expected[] = {
      1, 0, 0, 0, 0, 0, 0, 0,  // epoch 1
      1, 0, 0, 0, 0, 0, 0, 0,  // seq 1
      0, 0, 0, 0, 5, 0, 0, 0,  // tag 5, window 0
      16, 0, 0, 0, 0, 0, 0, 0,  // disp 2 * 8 bytes
      0, 0, 0, 0, 0, 0, 0, 0,  // empty payload
      1, 0, 0, 0, 0, 0, 0, 0,  // epoch 1
      2, 0, 0, 0, 0, 0, 0, 0,  // seq 2
      0, 0, 0, 0, 6, 0, 0, 0,  // tag 6, window 0
      24, 0, 0, 0, 0, 0, 0, 0,  // disp 3 * 8 bytes
      3, 0, 0, 0, 0, 0, 0, 0,  // 3-byte payload
      0xAA, 0xBB, 0xCC};
  ASSERT_EQ(image.size(), sizeof expected);
  EXPECT_EQ(std::memcmp(image.data(), expected, sizeof expected), 0);
}

class FtLogAlloc : public ::testing::TestWithParam<int> {};

TEST_P(FtLogAlloc, LoggingWithinAnEpochIsAllocationFree) {
  // Two ranks trade 64 logged one-word puts per epoch with a checkpoint
  // (and log trim) at every boundary. After warm-up, a logged put — log
  // append plus the notified put it forwards — allocates nothing. The
  // warm-up is long because the event calendar's buckets trade storage
  // with its sorted front; every bucket's buffer must have grown to the
  // pattern's burst size (here after ~140 epochs) before posts stop
  // allocating.
  constexpr int kPuts = 64;
  constexpr int kWarmEpochs = 256;
  constexpr int kMeasuredEpochs = 16;
  WorldParams wp;
  wp.fabric.ranks_per_node = GetParam();
  std::vector<std::uint64_t> allocs(2, 0);
  World world(2, wp);
  world.run([&](Rank& self) {
    const int peer = 1 - self.id();
    auto win = self.win_allocate(kPuts * sizeof(double), sizeof(double));
    ft::FtParams fp;
    fp.enabled = true;
    fp.ckpt_interval = 1;
    ft::RecoveryManager mgr(self, fp, {win.get()});
    auto req = self.na().notify_init(*win, na::MatchSpec{peer, 1}, kPuts);
    std::vector<double> vals(kPuts);
    for (int epoch = 0; epoch < kWarmEpochs + kMeasuredEpochs; ++epoch) {
      self.na().start(req);
      for (int i = 0; i < kPuts; ++i) {
        const auto slot = static_cast<std::size_t>(i);
        vals[slot] = 100.0 * epoch + i;
        const std::uint64_t before = test::allocs_now();
        mgr.put_notify(0, na::as_bytes(&vals[slot], sizeof(double)), peer,
                       static_cast<std::uint64_t>(i), 1);
        if (epoch >= kWarmEpochs)
          allocs[static_cast<std::size_t>(self.id())] +=
              test::allocs_now() - before;
      }
      win->flush(peer);
      self.na().wait(req);
      ASSERT_TRUE(mgr.end_epoch());
    }
  });
  EXPECT_EQ(allocs[0], 0u);
  EXPECT_EQ(allocs[1], 0u);
}

// One rank per node (network CQE path) and both on one node (shm ring).
INSTANTIATE_TEST_SUITE_P(Layouts, FtLogAlloc, ::testing::Values(1, 2));
