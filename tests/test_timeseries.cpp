// Tests of the flight recorder (src/obs/timeseries, DESIGN.md §12) and the
// host-time phase profiler (src/obs/profile): the telescoping invariant
// (window deltas sum exactly to the end-of-run metrics totals, including
// through downsampling merges), bit-identical exports across repeated runs
// and with profiling on or off, the fully disabled path, the straggler and
// residual tables `narma_cli timeline` computes from the run directory, and
// the profiler's accounting identities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/table.hpp"
#include "core/world.hpp"
#include "obs/profile.hpp"
#include "obs/readers.hpp"
#include "obs/timeseries.hpp"

using namespace narma;

namespace {

/// Parameters with the flight recorder on at a `window`-ps cadence.
WorldParams recorded(Time window) {
  WorldParams wp;
  wp.obs.timeseries = true;
  wp.obs.timeseries_window_ps = window;
  return wp;
}

/// Deterministic 4-rank workload: a ring of notified puts with calibrated
/// compute, long enough to span several 100 us recorder windows.
void run_ring(World& world, int iters = 12, Time compute_ps = us(30)) {
  world.run([iters, compute_ps](Rank& self) {
    const int next = (self.id() + 1) % self.size();
    const int prev = (self.id() + self.size() - 1) % self.size();
    auto win = self.win_allocate(64, 1);
    auto req = self.na().notify_init(*win, na::MatchSpec{prev, 7}, 1);
    double v = self.id();
    for (int i = 0; i < iters; ++i) {
      self.compute(compute_ps);
      self.na().put_notify(*win, na::as_bytes(&v, 8), next, 0, 7);
      win->flush(next);
      self.na().start(req);
      self.na().wait(req);
    }
    self.barrier();
  });
}

/// Sums every counter / histogram window delta per (family name, rank).
struct Telescoped {
  std::map<std::pair<std::string, int>, std::uint64_t> counter;
  std::map<std::pair<std::string, int>, std::pair<std::uint64_t,
                                                  std::uint64_t>> hist;
};

Telescoped telescope(const obs::TimeSeries& ts) {
  Telescoped out;
  const auto& fams = ts.families();
  for (const auto& w : ts.windows()) {
    for (const auto& c : w.cells) {
      const auto& f = fams[c.family];
      const auto key = std::make_pair(f.name, static_cast<int>(c.rank));
      if (f.kind == obs::Kind::kCounter) {
        out.counter[key] += c.a;
      } else if (f.kind == obs::Kind::kHistogram) {
        out.hist[key].first += c.a;
        out.hist[key].second += c.b;
      }
    }
  }
  return out;
}

bool is_host_time(const std::string& name) {
  return name.rfind("obs.phase_", 0) == 0 ||
         name.rfind("obs.profile_", 0) == 0 || name == "sim.run_wall_ns" ||
         name == "sim.events_per_sec";
}

/// Asserts the telescoping invariant against the registry's final totals,
/// for every recorded rank.
void expect_telescopes(World& world) {
  ASSERT_NE(world.timeseries(), nullptr);
  ASSERT_NE(world.metrics(), nullptr);
  const Telescoped acc = telescope(*world.timeseries());
  const std::vector<int>& recorded = world.timeseries()->recorded_ranks();
  std::size_t checked = 0;
  world.metrics()->visit([&](const obs::Registry::FamilyView& f) {
    if (is_host_time(f.name)) return;
    for (int rank : recorded) {
      const auto r = static_cast<std::size_t>(rank);
      const auto key = std::make_pair(f.name, rank);
      if (f.kind == obs::Kind::kCounter) {
        const auto it = acc.counter.find(key);
        const std::uint64_t got = it == acc.counter.end() ? 0 : it->second;
        EXPECT_EQ(got, f.counts[r]) << f.name << " rank " << rank;
        ++checked;
      } else if (f.kind == obs::Kind::kHistogram) {
        const auto it = acc.hist.find(key);
        const std::uint64_t got_n =
            it == acc.hist.end() ? 0 : it->second.first;
        const std::uint64_t got_s =
            it == acc.hist.end() ? 0 : it->second.second;
        EXPECT_EQ(got_n, f.hists[r].count) << f.name << " rank " << rank;
        EXPECT_EQ(got_s, f.hists[r].sum) << f.name << " rank " << rank;
        ++checked;
      }
    }
  });
  EXPECT_GT(checked, 20u);  // the stack registered and telescoped real data
}

}  // namespace

TEST(TimeSeries, DisabledByDefault) {
  World world(2);
  EXPECT_EQ(world.timeseries(), nullptr);
  run_ring(world, 2);
  EXPECT_EQ(world.timeseries(), nullptr);
  // The run directory then holds no timeseries.json.
  const std::string dir = testing::TempDir() + "ts_disabled_run";
  ASSERT_EQ(world.write_artifacts(dir), "");
  EXPECT_FALSE(json::parse_file(dir + "/timeseries.json").ok);
}

TEST(TimeSeries, WindowDeltasTelescopeToFinalTotals) {
  World world(4, recorded(us(50)));
  run_ring(world);
  const obs::TimeSeries& ts = *world.timeseries();
  EXPECT_GT(ts.snapshots(), 2u);
  EXPECT_GE(ts.windows().size(), 2u);
  expect_telescopes(world);

  // Windows are contiguous from t=0 to the final finalize() boundary, and
  // rank deltas telescope to the engine's end-of-run clocks.
  Time prev_end = 0;
  for (const auto& w : ts.windows()) {
    EXPECT_EQ(w.t_begin, prev_end);
    EXPECT_GT(w.t_end, w.t_begin);
    prev_end = w.t_end;
  }
  for (int r = 0; r < 4; ++r) {
    Time total = 0, blocked = 0;
    for (const auto& w : ts.windows()) {
      total += w.ranks[static_cast<std::size_t>(r)].d_total;
      blocked += w.ranks[static_cast<std::size_t>(r)].d_blocked;
    }
    EXPECT_EQ(total, world.engine().rank(r).now()) << "rank " << r;
    EXPECT_EQ(blocked, world.engine().rank(r).blocked_time()) << "rank " << r;
  }
}

TEST(TimeSeries, DownsamplingKeepsMemoryBoundedAndTelescoping) {
  WorldParams wp = recorded(us(2));  // many snapshots
  wp.obs.timeseries_capacity = 8;     // tiny ring forces merges
  World world(4, wp);
  run_ring(world, 16);
  const obs::TimeSeries& ts = *world.timeseries();
  EXPECT_GT(ts.merges(), 0u) << "run too short to exercise downsampling";
  EXPECT_LE(ts.windows().size(), 8u);
  EXPECT_GT(ts.snapshots(), 8u);
  // Merged windows carry their fold count; the sum of fold counts equals
  // the number of raw snapshots.
  std::uint64_t folded = 0;
  for (const auto& w : ts.windows()) folded += w.merged;
  EXPECT_EQ(folded, ts.snapshots());
  expect_telescopes(world);
}

TEST(TimeSeries, ExportBitIdenticalAcrossRunsAndWithProfilerOnOrOff) {
  auto run_once = [](bool profile) {
    World world(4, recorded(us(50)));
    if (profile) world.enable_profiling();
    run_ring(world);
    std::vector<Time> clocks;
    for (int r = 0; r < 4; ++r)
      clocks.push_back(world.engine().rank(r).now());
    return std::make_pair(world.timeseries()->to_json(), clocks);
  };
  const auto [json1, clocks1] = run_once(false);
  const auto [json2, clocks2] = run_once(false);
  const auto [json3, clocks3] = run_once(true);
  EXPECT_EQ(json1, json2) << "recorder export differs across identical runs";
  EXPECT_EQ(json1, json3) << "host profiling perturbed the recorder export";
  EXPECT_EQ(clocks1, clocks2);
  EXPECT_EQ(clocks1, clocks3) << "host profiling perturbed virtual time";
}

TEST(TimeSeries, RecorderDoesNotPerturbVirtualMetrics) {
  auto final_counters = [](bool recorder) {
    WorldParams wp = recorded(us(50));
    wp.obs.timeseries = recorder;
    World world(4, wp);
    run_ring(world);
    std::map<std::string, std::vector<std::uint64_t>> out;
    world.metrics()->visit([&](const obs::Registry::FamilyView& f) {
      if (f.kind == obs::Kind::kCounter && !is_host_time(f.name))
        out[f.name].assign(f.counts.begin(), f.counts.end());
    });
    return out;
  };
  EXPECT_EQ(final_counters(false), final_counters(true));
}

// Past TimeSeries::kMaxRecordedRanks ranks the recorder keeps per-rank rows
// for an evenly spaced subset only. Checked from the two dumps, as a reader
// would: each (counter family, recorded rank) telescopes to that rank's
// per_rank value, no unrecorded rank leaks into the cells, and the
// all-rank rank_agg sums telescope to the ranks' final clocks.
TEST(TimeSeries, RecorderTelescopesPastRecordedRankLimit) {
  constexpr int kRanks = 96;
  World world(kRanks, recorded(us(50)));
  run_ring(world);
  const std::string dir = testing::TempDir() + "ts_96_run";
  ASSERT_EQ(world.write_artifacts(dir), "");
  const json::ParseResult ts = json::parse_file(dir + "/timeseries.json");
  const json::ParseResult m = json::parse_file(dir + "/metrics.json");
  ASSERT_TRUE(ts.ok) << ts.error;
  ASSERT_TRUE(m.ok) << m.error;

  const json::Array& windows = ts.value["windows"].as_array();
  ASSERT_GE(windows.size(), 2u);
  std::set<int> recorded;
  for (const json::Value& r : windows[0]["ranks"].as_array())
    recorded.insert(static_cast<int>(r.number_or("rank", -1)));
  ASSERT_EQ(recorded.size(),
            static_cast<std::size_t>(obs::TimeSeries::kMaxRecordedRanks));
  EXPECT_EQ(*recorded.begin(), 0);
  EXPECT_LT(*recorded.rbegin(), kRanks);

  const json::Array& fams = ts.value["families"].as_array();
  std::map<std::pair<std::string, int>, double> windowed;
  double total_ps = 0;
  for (const json::Value& win : windows) {
    total_ps += win["rank_agg"].number_or("total_ps_sum", 0);
    for (const json::Value& c : win["cells"].as_array()) {
      const auto idx = static_cast<std::size_t>(c.number_or("family", 0));
      ASSERT_LT(idx, fams.size());
      const int rank = static_cast<int>(c.number_or("rank", -1));
      ASSERT_TRUE(recorded.count(rank)) << "unrecorded rank " << rank;
      if (fams[idx].string_or("kind", "") == "counter")
        windowed[{fams[idx].string_or("name", "?"), rank}] +=
            c.number_or("delta", 0);
    }
  }

  std::size_t checked = 0;
  double total_ns = 0;
  for (const json::Value& fam : m.value["metrics"].as_array()) {
    const std::string name = fam.string_or("name", "");
    const json::Array& per_rank = fam["per_rank"].as_array();
    ASSERT_EQ(per_rank.size(), static_cast<std::size_t>(kRanks)) << name;
    if (name == "sim.total_ns")
      for (const json::Value& cell : per_rank)
        total_ns += cell.number_or("value", 0);
    if (fam.string_or("kind", "") != "counter" || is_host_time(name))
      continue;
    for (int rank : recorded) {
      const auto it = windowed.find({name, rank});
      EXPECT_EQ(it == windowed.end() ? 0.0 : it->second,
                per_rank[static_cast<std::size_t>(rank)].number_or("value", -1))
          << name << " rank " << rank;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u * recorded.size());

  // sim.total_ns holds each rank's final clock truncated to whole ns, so
  // the exact picosecond sum lies within one ns per rank above it.
  double clocks_ps = 0;
  for (int r = 0; r < kRanks; ++r)
    clocks_ps += static_cast<double>(world.engine().rank(r).now());
  EXPECT_EQ(total_ps, clocks_ps);
  EXPECT_GE(total_ps, total_ns * 1e3);
  EXPECT_LT(total_ps, (total_ns + kRanks) * 1e3);
}

TEST(TimeSeries, HostTimeFamiliesExcludedFromSnapshots) {
  World world(2, recorded(us(50)));
  world.enable_profiling();
  run_ring(world, 6);
  for (const auto& f : world.timeseries()->families())
    EXPECT_FALSE(is_host_time(f.name)) << f.name;
}

namespace {

/// The rows of the table `title` in `world`'s `narma_cli timeline` output,
/// each split into its whitespace-separated cells.
std::vector<std::vector<std::string>> timeline_rows(World& world,
                                                    const std::string& name,
                                                    const std::string& title) {
  const std::string dir = testing::TempDir() + name;
  EXPECT_EQ(world.write_artifacts(dir), "");
  std::FILE* f = std::tmpfile();
  const obs::ReadResult r = obs::timeline(dir, {}, f);
  EXPECT_EQ(r.status, obs::ReadStatus::kOk) << r.diagnostic;
  std::rewind(f);
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
    out.append(buf, n);
  std::fclose(f);
  std::vector<std::vector<std::string>> rows;
  const std::size_t at = out.find("\n" + title + ":\n");
  if (at == std::string::npos) return rows;
  std::istringstream lines(out.substr(at + title.size() + 3));
  std::string line;
  std::getline(lines, line);  // header
  std::getline(lines, line);  // rule
  while (std::getline(lines, line) && !line.empty()) {
    std::istringstream cells(line);
    rows.emplace_back(std::istream_iterator<std::string>(cells),
                      std::istream_iterator<std::string>());
  }
  return rows;
}

constexpr const char* kResiduals =
    "model residuals (measured - LogGP per backend)";

/// The residual table timeline must print for `world`, computed here from
/// the live recorders and the fabric: each complete message's channel stage
/// minus its lane's g + G*bytes + L, grouped by (window holding its end,
/// shm or aries), formatted as the table formats it.
std::vector<std::vector<std::string>> expected_residuals(World& world) {
  const auto& windows = world.timeseries()->windows();
  struct Acc {
    std::uint64_t msgs = 0;
    double model = 0, resid = 0, max_abs = 0;
  };
  std::map<std::pair<std::size_t, std::string>, Acc> groups;
  for (const auto& m : world.msgtrace()->summarize()) {
    if (!m.complete) continue;
    std::size_t wi = 0;
    while (wi + 1 < windows.size() && windows[wi].t_end <= m.t_end) ++wi;
    const net::Fabric& fabric = world.fabric();
    const net::TransportTiming& tm =
        fabric.timing(fabric.transport_for(m.src, m.dst, m.bytes));
    const double model = static_cast<double>(tm.L) +
                         static_cast<double>(tm.g) +
                         tm.G_ps_per_byte * static_cast<double>(m.bytes);
    double measured = 0;
    for (obs::LatCat c : {obs::LatCat::kChanQueue, obs::LatCat::kGap,
                          obs::LatCat::kSer, obs::LatCat::kWire})
      measured += static_cast<double>(m.cat[static_cast<std::size_t>(c)]);
    Acc& acc = groups[{wi, fabric.same_node(m.src, m.dst) ? "shm" : "aries"}];
    ++acc.msgs;
    acc.model += model;
    acc.resid += measured - model;
    acc.max_abs = std::max(acc.max_abs, std::abs(measured - model));
  }
  std::vector<std::vector<std::string>> rows;
  for (const auto& [key, acc] : groups) {
    const double n = static_cast<double>(acc.msgs);
    rows.push_back({std::to_string(key.first), key.second,
                    std::to_string(acc.msgs), Table::fmt(acc.model / n / 1e3),
                    Table::fmt(acc.resid / n / 1e3),
                    Table::fmt(acc.max_abs / 1e3)});
    if (acc.resid / n > 0.5 * acc.model / n) rows.back().push_back("FLAGGED");
  }
  return rows;
}

}  // namespace

TEST(TimeSeries, StragglerFlagged) {
  World world(4, recorded(us(100)));
  // Ranks 0-2 stay busy all window; rank 3 computes a sliver and blocks in
  // the barrier — a straggler in every full window.
  world.run([](Rank& self) {
    for (int i = 0; i < 4; ++i) {
      self.compute(self.id() == 3 ? us(5) : us(95));
      self.barrier();
    }
  });
  // timeline flags it; the recorder's all-rank count agrees; the journal
  // records no analysis.
  std::size_t flagged = 0;
  for (const auto& row :
       timeline_rows(world, "ts_straggler", "anomalies (4)")) {
    ASSERT_GE(row.size(), 4u);
    EXPECT_EQ(row[1], "straggler");
    EXPECT_EQ(row[2], "3");
    EXPECT_EQ(row[3], "busy");
    EXPECT_EQ(world.timeseries()->windows()[std::stoul(row[0])].agg.stragglers,
              1u);
    ++flagged;
  }
  EXPECT_EQ(flagged, 4u);
  EXPECT_EQ(world.journal()->appended(), 0u);
}

TEST(TimeSeries, ResidualRowsFromMsgTrace) {
  WorldParams wp = recorded(us(50));  // one rank per node -> aries
  wp.obs.msgtrace = true;
  World world(4, wp);
  run_ring(world);
  const auto rows = timeline_rows(world, "ts_residual", kResiduals);
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    ASSERT_GE(row.size(), 6u);
    EXPECT_EQ(row[1], "aries");
    EXPECT_LT(std::stoul(row[0]), world.timeseries()->windows().size());
    EXPECT_GT(std::stod(row[3]), 1000.0);  // FMA: L alone is 1.02 us
  }
  EXPECT_EQ(rows, expected_residuals(world));
}

// Two ranks per node: the ring's even-to-odd hops stay on the node (shm),
// the odd-to-even ones cross it (aries), so the table holds both backends.
TEST(TimeSeries, ResidualRowsPerBackendAtTwoRanksPerNode) {
  WorldParams wp = recorded(us(50));
  wp.obs.msgtrace = true;
  wp.fabric.ranks_per_node = 2;
  World world(4, wp);
  run_ring(world);
  const auto rows = timeline_rows(world, "ts_residual_rpn2", kResiduals);
  std::set<std::string> backends;
  for (const auto& row : rows) backends.insert(row.at(1));
  EXPECT_EQ(backends, (std::set<std::string>{"aries", "shm"}));
  EXPECT_EQ(rows, expected_residuals(world));
}

// --- Profiler ----------------------------------------------------------------

TEST(Profiler, ScopesAttributePhases) {
  obs::Profiler prof;
  prof.start();
  {
    obs::PhaseScope match(&prof, obs::Phase::kMatch);
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 50000; ++i) sink = sink + static_cast<std::uint64_t>(i);
    {
      obs::PhaseScope obs_scope(&prof, obs::Phase::kObs);
      for (int i = 0; i < 5000; ++i) sink = sink + static_cast<std::uint64_t>(i);
    }
  }
  prof.stop();
  EXPECT_GT(prof.total_ticks(), 0u);
  EXPECT_GT(prof.stat(obs::Phase::kMatch).ticks, 0u);
  EXPECT_EQ(prof.stat(obs::Phase::kMatch).calls, 1u);
  EXPECT_EQ(prof.stat(obs::Phase::kObs).calls, 1u);
  // Attributed + unattributed ticks partition the run exactly.
  std::uint64_t attributed = 0;
  for (std::size_t p = 0; p < obs::kNumPhases; ++p)
    attributed += prof.stat(static_cast<obs::Phase>(p)).ticks;
  EXPECT_EQ(attributed + prof.unattributed_ticks(), prof.total_ticks());
  // Fractions sum to 1 over phases + unattributed.
  double frac = static_cast<double>(prof.unattributed_ticks()) /
                static_cast<double>(prof.total_ticks());
  for (std::size_t p = 0; p < obs::kNumPhases; ++p)
    frac += prof.fraction(static_cast<obs::Phase>(p));
  EXPECT_NEAR(frac, 1.0, 1e-9);
}

TEST(Profiler, ScopeIsNoOpWhenNullOrStopped) {
  {
    obs::PhaseScope s(nullptr, obs::Phase::kMatch);  // must not crash
  }
  obs::Profiler prof;  // never started
  {
    obs::PhaseScope s(&prof, obs::Phase::kMatch);
  }
  EXPECT_EQ(prof.stat(obs::Phase::kMatch).ticks, 0u);
  EXPECT_EQ(prof.stat(obs::Phase::kMatch).calls, 0u);
}

TEST(Profiler, ExportedGaugesCoverRunAndRespectObsBudget) {
  World world(4, recorded(us(50)));
  world.enable_profiling();
  run_ring(world);
  obs::Registry& reg = *world.metrics();
  const auto total =
      static_cast<double>(reg.gauge_value("obs.profile_total_ns", 0));
  ASSERT_GT(total, 0.0);
  double attributed = 0;
  for (std::size_t p = 0; p < obs::kNumPhases; ++p)
    attributed += static_cast<double>(reg.gauge_value(
        std::string("obs.phase_") + obs::to_string(obs::Phase(p)) + "_ns", 0));
  const auto unattr = static_cast<double>(
      reg.gauge_value("obs.profile_unattributed_ns", 0));
  // The exported gauges partition the measured host run.
  EXPECT_NEAR(attributed + unattr, total, total * 0.01);
  EXPECT_LT(unattr / total, 0.10);
}
