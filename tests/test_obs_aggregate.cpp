// Aggregate observability (DESIGN.md §14): dense/aggregate equivalence over
// randomized schedules, top-k outlier retention, the anomaly journal, and
// the narma.metrics.v2 dump schema.
//
// The equivalence property is the load-bearing one: switching the registry
// layout must change neither a single virtual time (same golden schedule
// hash) nor any whole-family reduction (sums, active counts, high-waters,
// merged histograms are bit-identical to what the dense cells reduce to).
// The default-seed loop covers kGoldenScheduleCountShort schedules; the
// full kGoldenScheduleCount run is the `slow`-labeled ctest entry.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hpp"
#include "core/world.hpp"
#include "golden_schedule.hpp"
#include "obs/journal.hpp"

namespace {

using namespace narma;

/// Families whose values depend on host wall clock or on the observability
/// configuration itself — excluded from dense/aggregate comparisons (same
/// exclusion the flight recorder applies to snapshots).
bool config_dependent_family(const std::string& name) {
  return name.rfind("obs.", 0) == 0 || name == "sim.run_wall_ns" ||
         name == "sim.events_per_sec";
}

/// Every whole-family reduction of a finished world's registry, keyed by
/// family name. Built through the mode-independent aggregate_* accessors,
/// so a dense and an aggregate run of the same schedule must produce equal
/// maps.
struct Reductions {
  std::map<std::string, std::pair<std::uint64_t, int>> counters;  // sum, active
  std::map<std::string, std::int64_t> gauge_hw;
  // count, sum, min, max, log2 bucket array
  std::map<std::string,
           std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                      std::uint64_t, std::array<std::uint64_t, 64>>>
      hists;
  bool operator==(const Reductions&) const = default;
};

Reductions reduce_all(World& world) {
  Reductions red;
  obs::Registry& reg = *world.metrics();
  std::map<std::string, obs::Kind> kinds;
  reg.visit([&](const obs::Registry::CellView& v) {
    kinds.emplace(v.name, v.kind);
  });
  for (const auto& [name, kind] : kinds) {
    if (config_dependent_family(name)) continue;
    switch (kind) {
      case obs::Kind::kCounter:
        red.counters[name] = {reg.aggregate_counter_sum(name),
                              reg.aggregate_counter_active(name)};
        break;
      case obs::Kind::kGauge:
        red.gauge_hw[name] = reg.aggregate_gauge_hw(name);
        break;
      case obs::Kind::kHistogram: {
        const obs::HistData h = reg.aggregate_hist(name);
        red.hists[name] = {h.count, h.sum, h.min, h.max, h.buckets};
        break;
      }
    }
  }
  return red;
}

void expect_equivalent_schedule(std::uint64_t seed) {
  Reductions dense, agg;
  const std::uint64_t h_dense = golden::schedule_hash_with(
      seed, golden::ObsOverride::kDense,
      [&](World& w) { dense = reduce_all(w); });
  const std::uint64_t h_agg = golden::schedule_hash_with(
      seed, golden::ObsOverride::kAggregate,
      [&](World& w) { agg = reduce_all(w); });
  ASSERT_EQ(h_dense, h_agg) << "virtual time diverged at seed " << seed;
  ASSERT_FALSE(dense.counters.empty()) << "no counters at seed " << seed;
  ASSERT_EQ(dense.counters, agg.counters) << "counter sums, seed " << seed;
  ASSERT_EQ(dense.gauge_hw, agg.gauge_hw) << "gauge high-waters, seed "
                                          << seed;
  ASSERT_EQ(dense.hists, agg.hists) << "histograms, seed " << seed;
}

TEST(ObsAggregate, DenseEquivalenceShort) {
  for (std::uint64_t s = 1; s <= golden::kGoldenScheduleCountShort; ++s)
    expect_equivalent_schedule(s);
}

TEST(ObsAggregateSlow, DenseEquivalenceFull) {
  for (std::uint64_t s = 1; s <= golden::kGoldenScheduleCount; ++s)
    expect_equivalent_schedule(s);
}

// The aggregate layout must not perturb the seeded configuration draw: a
// kNone run still reproduces the committed golden fold.
TEST(ObsAggregate, GoldenDrawSequenceUnchanged) {
  ASSERT_EQ(golden::all_schedules_hash(golden::kGoldenScheduleCountShort),
            golden::kGoldenScheduleHashShort);
}

// --- top-k outlier retention -------------------------------------------------

TEST(ObsAggregate, CounterOutliersAreTrueTopK) {
  obs::ObsParams p;
  p.obs_mode = obs::ObsMode::kAggregate;
  p.obs_shards = 4;
  p.sample_ranks = 2;
  p.outlier_k = 4;
  constexpr int kRanks = 64;
  obs::Registry reg(kRanks, p);
  // Distinct per-rank totals in a scrambled order so admissions interleave
  // with evictions: rank r ends at (r * 37) % 101 + 1.
  std::vector<obs::Counter> handles;
  handles.reserve(kRanks);
  for (int r = 0; r < kRanks; ++r) handles.push_back(reg.counter("t.c", r));
  std::vector<std::pair<std::uint64_t, int>> expect;  // total, rank
  for (int r = 0; r < kRanks; ++r) {
    const auto total =
        static_cast<std::uint64_t>((r * 37) % 101 + 1);
    expect.push_back({total, r});
    // Split each rank's total across two bursts so later increments must
    // re-rank an already-admitted entry, not just insert fresh ones.
    handles[static_cast<std::size_t>(r)].inc(total / 2);
    handles[static_cast<std::size_t>(r)].inc(total - total / 2);
  }
  std::sort(expect.begin(), expect.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  const auto out = reg.outliers("t.c");
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>(out[i].value), expect[i].first)
        << "slot " << i;
    EXPECT_EQ(out[i].rank, expect[i].second) << "slot " << i;
  }
  // The family sum stays exact regardless of which ranks were retained.
  std::uint64_t sum = 0;
  for (const auto& [total, rank] : expect) sum += total;
  EXPECT_EQ(reg.aggregate_counter_sum("t.c"), sum);
  EXPECT_EQ(reg.aggregate_counter_active("t.c"), kRanks);
}

TEST(ObsAggregate, GaugeOutliersTrackHighWater) {
  obs::ObsParams p;
  p.obs_mode = obs::ObsMode::kAggregate;
  p.obs_shards = 2;
  p.sample_ranks = 1;
  p.outlier_k = 2;
  obs::Registry reg(8, p);
  std::vector<obs::Gauge> gs;
  for (int r = 0; r < 8; ++r) gs.push_back(reg.gauge("t.g", r));
  // Rank 5 spikes to 90 then settles; rank 2 climbs to 70. The outlier set
  // must rank by high-water (the running max), not the final level.
  for (int r = 0; r < 8; ++r)
    gs[static_cast<std::size_t>(r)].set(r, static_cast<Time>(r + 1));
  gs[5].set(90, Time{10});
  gs[5].set(1, Time{11});
  gs[2].set(70, Time{12});
  const auto out = reg.outliers("t.g");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rank, 5);
  EXPECT_EQ(out[0].value, 90);
  EXPECT_EQ(out[1].rank, 2);
  EXPECT_EQ(out[1].value, 70);
  EXPECT_EQ(reg.aggregate_gauge_hw("t.g"), 90);
}

TEST(ObsAggregate, OutlierKZeroDisablesRetention) {
  obs::ObsParams p;
  p.obs_mode = obs::ObsMode::kAggregate;
  p.outlier_k = 0;
  obs::Registry reg(8, p);
  obs::Counter c = reg.counter("t.c", 3);
  c.inc(1000);
  EXPECT_TRUE(reg.outliers("t.c").empty());
  EXPECT_EQ(reg.aggregate_counter_sum("t.c"), 1000u);
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

// --- narma.metrics.v2 dump ---------------------------------------------------

TEST(ObsAggregate, V2DumpMatchesRegistry) {
  WorldParams wp;
  wp.obs.obs_mode = obs::ObsMode::kAggregate;
  wp.obs.obs_shards = 4;
  wp.obs.sample_ranks = 4;
  wp.obs.outlier_k = 3;
  World world(8, wp);
  run_small_workload(world);
  obs::Registry& reg = *world.metrics();
  const json::ParseResult doc = json::parse(reg.to_json());
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.value.string_or("schema", ""), "narma.metrics.v2");
  EXPECT_EQ(doc.value.string_or("obs_mode", ""), "aggregate");
  EXPECT_EQ(static_cast<int>(doc.value.number_or("nranks", 0)), 8);
  EXPECT_EQ(static_cast<int>(doc.value.number_or("shards", 0)), 4);
  EXPECT_EQ(doc.value["sample_ranks"].as_array().size(), 4u);
  bool checked = false;
  for (const json::Value& fam : doc.value["metrics"].as_array()) {
    const std::string name = fam.string_or("name", "");
    const std::string kind = fam.string_or("kind", "");
    ASSERT_TRUE(fam["aggregate"].is_object()) << name;
    ASSERT_TRUE(fam["outliers"].is_array()) << name;
    ASSERT_TRUE(fam["sampled"].is_array()) << name;
    if (kind == "counter" && !config_dependent_family(name)) {
      EXPECT_EQ(static_cast<std::uint64_t>(
                    fam["aggregate"].number_or("sum", -1)),
                reg.aggregate_counter_sum(name))
          << name;
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(ObsAggregate, DenseModeStillEmitsV1) {
  WorldParams wp;  // default dense
  World world(2, wp);
  run_small_workload(world);
  const json::ParseResult doc = json::parse(world.metrics()->to_json());
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.value.string_or("schema", ""), "narma.metrics.v1");
}

// --- aggregate flight recorder -----------------------------------------------

// Per-family cell deltas summed over every window and row must telescope to
// the final whole-family counter totals — the recorder's defining identity,
// preserved by the aggregate layout's shard + sampled rows.
TEST(ObsAggregate, RecorderTelescopesInAggregateMode) {
  WorldParams wp;
  wp.obs.obs_mode = obs::ObsMode::kAggregate;
  wp.obs.obs_shards = 4;
  wp.obs.sample_ranks = 2;
  World world(8, wp);
  world.enable_timeseries(us(5));
  run_small_workload(world);
  std::string path = testing::TempDir() + "obs_agg_ts.json";
  ASSERT_TRUE(world.dump_timeseries(path));
  const json::ParseResult doc = json::parse_file(path);
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.value.string_or("obs_mode", ""), "aggregate");

  const json::Array& fams = doc.value["families"].as_array();
  std::map<std::string, double> windowed;  // family -> summed cell deltas
  for (const json::Value& win : doc.value["windows"].as_array()) {
    ASSERT_TRUE(win["rank_agg"].is_object());
    for (const json::Value& c : win["cells"].as_array()) {
      const auto idx = static_cast<std::size_t>(c.number_or("family", 0));
      ASSERT_LT(idx, fams.size());
      if (fams[idx].string_or("kind", "") == "counter")
        windowed[fams[idx].string_or("name", "?")] +=
            c.number_or("delta", 0);
    }
  }
  obs::Registry& reg = *world.metrics();
  std::size_t compared = 0;
  for (const auto& [name, total] : windowed) {
    if (config_dependent_family(name)) continue;
    EXPECT_EQ(static_cast<std::uint64_t>(total),
              reg.aggregate_counter_sum(name))
        << name;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

}  // namespace
