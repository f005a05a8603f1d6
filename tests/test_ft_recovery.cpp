// Fail/rejoin recovery protocol tests (src/ft, DESIGN.md §15): partner
// checkpointing, notification-log replay with epoch/seq dedupe, the seeded
// fail-stop plan, dead-rank channel semantics, and the journal's recovery
// records. The app-level tests drive the stencil and tree through their
// fault-tolerant paths and require the recovered run to verify against the
// same analytic value as a fault-free run — recovery must be bit-exact, not
// merely "close".
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

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
