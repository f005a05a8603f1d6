// Whole-family metric reductions (DESIGN.md §14) and the anomaly journal.
//
// The reductions fold pins what the registry's aggregate_* sweeps return
// over randomized schedules: every workload family's counter sum and
// active-rank count, gauge high-water, and merged histogram (count, sum,
// min, max and the non-empty log2 buckets). It is split in two hashes. The
// engine fold covers the event-queue bookkeeping (how many events the
// engine ran and posted, queue depth, closure pool), which moves whenever
// a hardware action is modelled with a different number of events. The
// model fold covers every other family, folded together with each
// schedule's virtual-time hash: a change that moves any of those
// reductions — or any virtual time — fails it. The default-seed loop
// covers kGoldenScheduleCountShort schedules; the full
// kGoldenScheduleCount run is the `slow`-labeled ctest entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "common/json.hpp"
#include "core/world.hpp"
#include "golden_schedule.hpp"
#include "obs/journal.hpp"

namespace {

using namespace narma;

/// Families whose values depend on host wall clock or on the observability
/// configuration itself — left out of the fold (the same exclusion the
/// flight recorder applies to snapshots, plus the obs self-cost gauges).
bool config_dependent_family(const std::string& name) {
  return name.rfind("obs.", 0) == 0 || name == "sim.run_wall_ns" ||
         name == "sim.events_per_sec";
}

/// Event-queue bookkeeping of the engine itself: these count events, not
/// modelled hardware actions. sim.batched_posts no longer exists; it stays
/// listed so that this file, run against a build that still exports it,
/// reproduces the model fold pinned below.
bool engine_family(const std::string& name) {
  return name == "sim.events_executed" || name == "sim.events_posted" ||
         name == "sim.batched_posts" || name == "sim.event_queue_hw" ||
         name == "sim.queue_depth_at_pop" ||
         name.rfind("sim.event_pool_", 0) == 0;
}

std::uint64_t fold_name(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= golden::kFnvPrime;
  }
  return h;
}

struct Folds {
  std::uint64_t engine;
  std::uint64_t model;
};

/// FNV folds of every whole-family reduction of a finished world's
/// registry, families in name order: the engine families into one, the
/// rest into the other.
Folds fold_reductions(World& world) {
  const obs::Registry& reg = *world.metrics();
  Folds folds{golden::kFnvOffset, golden::kFnvOffset};
  reg.visit([&](const obs::Registry::FamilyView& f) {
    const std::string& name = f.name;
    if (config_dependent_family(name)) return;
    std::uint64_t& h = engine_family(name) ? folds.engine : folds.model;
    h = fold_name(h, name);
    h = golden::fnv_fold(h, static_cast<std::uint64_t>(f.kind));
    switch (f.kind) {
      case obs::Kind::kCounter:
        h = golden::fnv_fold(h, reg.aggregate_counter_sum(name));
        h = golden::fnv_fold(h, static_cast<std::uint64_t>(
                                    reg.aggregate_counter_active(name)));
        break;
      case obs::Kind::kGauge:
        h = golden::fnv_fold(
            h, static_cast<std::uint64_t>(reg.aggregate_gauge_hw(name)));
        break;
      case obs::Kind::kHistogram: {
        const obs::HistData hd = reg.aggregate_hist(name);
        h = golden::fnv_fold(h, hd.count);
        h = golden::fnv_fold(h, hd.sum);
        h = golden::fnv_fold(h, hd.min);
        h = golden::fnv_fold(h, hd.max);
        for (std::size_t i = 0; i < hd.buckets.size(); ++i) {
          if (hd.buckets[i] == 0) continue;
          h = golden::fnv_fold(h, i);
          h = golden::fnv_fold(h, hd.buckets[i]);
        }
        break;
      }
    }
  });
  return folds;
}

/// Folds over seeds 1..n, metrics on: of the engine fold alone, and of
/// (schedule hash, model fold).
Folds reductions_hash(std::uint64_t n) {
  Folds out{golden::kFnvOffset, golden::kFnvOffset};
  for (std::uint64_t s = 1; s <= n; ++s) {
    Folds red{};
    const std::uint64_t sched = golden::schedule_hash_with(
        s, golden::ObsOverride::kMetricsOn,
        [&](World& w) { red = fold_reductions(w); });
    out.engine = golden::fnv_fold(out.engine, red.engine);
    out.model = golden::fnv_fold(out.model, sched);
    out.model = golden::fnv_fold(out.model, red.model);
  }
  return out;
}

// The folds include every family name. The model fold did not move when
// the intra-node notified put became one engine event instead of two; the
// engine fold was re-recorded then (short 0x310581401139c860, full
// 0x0078bba5d7ab8eb7 before).
constexpr Folds kReductionsShort{0x871e19fb36fa552dull, 0x3d2707a23b31239aull};
constexpr Folds kReductionsFull{0xd850fabe70f47952ull, 0x1f1b82dad64b362cull};

TEST(ObsReductions, PinnedReductionsShort) {
  const Folds f = reductions_hash(golden::kGoldenScheduleCountShort);
  EXPECT_EQ(f.model, kReductionsShort.model);
  EXPECT_EQ(f.engine, kReductionsShort.engine);
}

TEST(ObsReductionsSlow, PinnedReductionsFull) {
  const Folds f = reductions_hash(golden::kGoldenScheduleCount);
  EXPECT_EQ(f.model, kReductionsFull.model);
  EXPECT_EQ(f.engine, kReductionsFull.engine);
}

// Forcing metrics on must not perturb the seeded configuration draw: a
// kNone run still reproduces the committed golden fold.
TEST(ObsReductions, GoldenDrawSequenceUnchanged) {
  ASSERT_EQ(golden::all_schedules_hash(golden::kGoldenScheduleCountShort),
            golden::kGoldenScheduleHashShort);
}

// --- anomaly journal ---------------------------------------------------------

/// A small all-to-root notified workload; every parameter deterministic.
void run_small_workload(World& world) {
  world.run([](Rank& self) {
    constexpr int kMsgs = 8;
    auto win = self.win_allocate(1 << 14, 1);
    if (self.id() != 0) {
      std::vector<std::byte> buf(512, std::byte{0x5a});
      for (int m = 0; m < kMsgs; ++m) {
        self.na().put_notify(*win, {buf.data(), buf.size()}, 0,
                             static_cast<std::uint64_t>(m) * 512, 7);
        win->flush(0);
      }
    } else {
      auto req = self.na().notify_init(
          *win, na::MatchSpec::any(),
          static_cast<std::uint32_t>(kMsgs * (self.size() - 1)));
      self.na().start(req);
      self.na().wait(req);
    }
    self.barrier();
  });
}

TEST(ObsJournal, FaultFreeRunIsClean) {
  WorldParams wp;  // defaults: no faults, journal on, no recorder
  World world(4, wp);
  ASSERT_NE(world.journal(), nullptr);
  run_small_workload(world);
  EXPECT_EQ(world.journal()->appended(), 0u);
  EXPECT_TRUE(world.journal()->records().empty());

  // Every recorder on, in the CI observability smoke configuration (4-rank
  // notified stencil, profiled), whose windows hold stragglers: the
  // recorders record, `timeline` flags, and the journal stays empty.
  wp.obs.msgtrace = wp.obs.timeseries = true;
  World traced(4, wp);
  traced.enable_profiling();
  apps::StencilConfig cfg;
  cfg.rows = 64;
  cfg.total_cols = 256;
  cfg.iters = 4;
  traced.run([&](Rank& self) { apps::run_stencil(self, cfg); });
  std::uint32_t stragglers = 0;
  for (const auto& w : traced.timeseries()->windows())
    stragglers += w.agg.stragglers;
  EXPECT_GT(stragglers, 0u);
  EXPECT_EQ(traced.journal()->appended(), 0u);
}

TEST(ObsJournal, CapacityZeroDisables) {
  WorldParams wp;
  wp.obs.journal_capacity = 0;
  World world(2, wp);
  EXPECT_EQ(world.journal(), nullptr);
  run_small_workload(world);
}

std::string faulty_run_journal_json(double drop_rate) {
  WorldParams wp;
  wp.fabric.faults.seed = 7;
  wp.fabric.faults.drop_rate = drop_rate;
  World world(4, wp);
  run_small_workload(world);
  return world.journal()->to_json();
}

TEST(ObsJournal, FaultDropsAreRecordedDeterministically) {
  const std::string a = faulty_run_journal_json(0.2);
  const std::string b = faulty_run_journal_json(0.2);
  EXPECT_EQ(a, b) << "identical seeded runs must journal identically";
  const json::ParseResult doc = json::parse(a);
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.value.string_or("schema", ""), "narma.journal.v1");
  const json::Array& recs = doc.value["records"].as_array();
  ASSERT_FALSE(recs.empty());
  bool saw_drop = false;
  for (const json::Value& r : recs)
    saw_drop |= r.string_or("kind", "") == "fault_drop";
  EXPECT_TRUE(saw_drop);
}

TEST(ObsJournal, RingKeepsMostRecentRecords) {
  obs::Journal j(4);
  for (int i = 0; i < 10; ++i)
    j.append(obs::JournalKind::kPressure, static_cast<Time>(i), i);
  EXPECT_EQ(j.appended(), 10u);
  EXPECT_EQ(j.dropped(), 6u);
  const auto recs = j.records();
  ASSERT_EQ(recs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(recs[static_cast<std::size_t>(i)].t, static_cast<Time>(i + 6));
    EXPECT_EQ(recs[static_cast<std::size_t>(i)].rank, i + 6);
  }
}

}  // namespace
