// Whole-family metric reductions (DESIGN.md §14) and the anomaly journal.
//
// The reductions fold pins what the registry's aggregate_* sweeps return
// over randomized schedules: every workload family's counter sum and
// active-rank count, gauge high-water, and merged histogram (count, sum,
// min, max and the non-empty log2 buckets), folded together with each
// schedule's virtual-time hash. The pinned values were computed with the
// per-rank registry layout that predates the column store, so a layout
// change that moves any reduction — or any virtual time — fails here. The
// default-seed loop covers kGoldenScheduleCountShort schedules; the full
// kGoldenScheduleCount run is the `slow`-labeled ctest entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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

std::uint64_t fold_name(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= golden::kFnvPrime;
  }
  return h;
}

/// FNV fold of every whole-family reduction of a finished world's registry,
/// families in name order.
std::uint64_t fold_reductions(World& world) {
  const obs::Registry& reg = *world.metrics();
  std::uint64_t h = golden::kFnvOffset;
  reg.visit([&](const obs::Registry::FamilyView& f) {
    const std::string& name = f.name;
    if (config_dependent_family(name)) return;
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
  return h;
}

/// Fold over seeds 1..n of (schedule hash, reductions fold), metrics on.
std::uint64_t reductions_hash(std::uint64_t n) {
  std::uint64_t h = golden::kFnvOffset;
  for (std::uint64_t s = 1; s <= n; ++s) {
    std::uint64_t red = 0;
    const std::uint64_t sched = golden::schedule_hash_with(
        s, golden::ObsOverride::kMetricsOn,
        [&](World& w) { red = fold_reductions(w); });
    h = golden::fnv_fold(h, sched);
    h = golden::fnv_fold(h, red);
  }
  return h;
}

// The folds include every family name. These values equal the previous
// pins (0x780a8aedadc73c27, 0x49a6342debb4198f) recomputed with the
// always-zero net.shm_drain_ps and net.aries_drain_ps families, which no
// longer exist, left out: every remaining reduction is unchanged.
constexpr std::uint64_t kReductionsHashShort = 0xf2f01a0f6b09517aull;
constexpr std::uint64_t kReductionsHashFull = 0xbd4f22f65b7a5ed6ull;

TEST(ObsReductions, PinnedReductionsShort) {
  EXPECT_EQ(reductions_hash(golden::kGoldenScheduleCountShort),
            kReductionsHashShort);
}

TEST(ObsReductionsSlow, PinnedReductionsFull) {
  EXPECT_EQ(reductions_hash(golden::kGoldenScheduleCount),
            kReductionsHashFull);
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
