// The run directory (World::write_artifacts): one fixed-name file per
// recorder, the first unwritable file named, and, read back through
// common/json as `narma_cli report|critpath|timeline|diff` read it, the
// invariants of the CI observability runs on their own configurations:
// the msgtrace decomposition identity, timeseries telescoping, same-seed
// repeatability and obs budget, the fail-stop journal's fail/rejoin
// pairing, and the 4096-rank schemas (RunDirSlow, ctest label `slow`).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/stencil.hpp"
#include "common/json.hpp"
#include "core/world.hpp"
#include "obs/msgtrace.hpp"

using namespace narma;

namespace {

namespace fs = std::filesystem;

/// Sum of a decomp_ps block over the latency categories.
double decomp_sum(const json::Value& decomp) {
  double sum = 0;
  for (std::size_t c = 0; c < obs::kNumCats; ++c)
    sum += decomp.number_or(obs::to_string(obs::LatCat(c)), 0);
  return sum;
}

/// The host-time families, as the CI check spelled them: the recorder must
/// never snapshot them, and telescoping skips them.
bool host_family(const std::string& name) {
  return name.starts_with("obs.phase_") || name.starts_with("obs.profile_") ||
         name == "sim.run_wall_ns" || name == "sim.events_per_sec";
}

/// A fresh, empty directory under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

json::Value load(const std::string& dir, const char* name,
                 const char* schema) {
  const json::ParseResult doc = json::parse_file(dir + "/" + name);
  EXPECT_TRUE(doc.ok) << name << ": " << doc.error;
  EXPECT_EQ(doc.value.string_or("schema", ""), schema) << name;
  return doc.value;
}

/// The CI's notified stencil: 64x256 points over `nranks` ranks, 4
/// iterations; runs it and writes the run directory `dir`.
void run_stencil_to(const std::string& dir, int nranks, WorldParams wp,
                    apps::StencilConfig cfg, bool profile,
                    ft::FtStats* victim = nullptr) {
  World world(nranks, wp);
  if (profile) world.enable_profiling();
  bool verified = false;
  world.run([&](Rank& self) {
    const apps::StencilResult r = apps::run_stencil(self, cfg);
    if (self.id() == 0) verified = r.verified;
    if (victim && r.ft.fails > 0) *victim = r.ft;
  });
  EXPECT_TRUE(verified);
  ASSERT_EQ(world.write_artifacts(dir), "");
}

apps::StencilConfig ci_stencil() {
  apps::StencilConfig cfg;
  cfg.rows = 64;
  cfg.total_cols = 256;
  cfg.iters = 4;
  cfg.variant = apps::StencilVariant::kNotified;
  return cfg;
}

void tiny_run(World& world) {
  world.run([](Rank& self) {
    auto win = self.win_allocate(64, 1);
    double v = 1.0;
    if (self.id() == 0) {
      self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 0, 3);
      win->flush(1);
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 3}, 1);
      self.na().start(req);
      self.na().wait(req);
      self.na().free(req);
    }
  });
}

}  // namespace

TEST(RunDir, WritesOneFixedNameFilePerRecorder) {
  {
    World world(2);  // defaults: metrics and journal only
    tiny_run(world);
    const std::string dir = fresh_dir("run_defaults");
    ASSERT_EQ(world.write_artifacts(dir), "");
    EXPECT_TRUE(fs::exists(dir + "/metrics.json"));
    EXPECT_TRUE(fs::exists(dir + "/journal.json"));
    EXPECT_FALSE(fs::exists(dir + "/msgtrace.json"));
    EXPECT_FALSE(fs::exists(dir + "/timeseries.json"));
  }
  WorldParams wp;
  wp.obs.msgtrace = wp.obs.timeseries = true;
  World world(2, wp);
  tiny_run(world);
  const std::string dir = fresh_dir("run_all") + "/nested";  // created
  ASSERT_EQ(world.write_artifacts(dir), "");
  for (const char* name : {obs::kMetricsFile, obs::kJournalFile,
                           obs::kMsgtraceFile, obs::kTimeseriesFile})
    EXPECT_TRUE(json::parse_file(dir + "/" + name).ok) << name;

  // msgtrace.json carries the fabric's lane table and, on each complete
  // message, the lane Fabric::transport_for gave it.
  const json::Value mt = json::parse_file(dir + "/msgtrace.json").value;
  const json::Array& lanes = mt["lanes"].as_array();
  ASSERT_EQ(lanes.size(), static_cast<std::size_t>(net::kNumTransports));
  for (std::size_t t = 0; t < lanes.size(); ++t) {
    const auto lane = static_cast<net::Transport>(t);
    const net::TransportTiming& tm = world.fabric().timing(lane);
    EXPECT_EQ(lanes[t].string_or("name", ""), net::to_string(lane));
    EXPECT_EQ(lanes[t].number_or("L_ps", -1), static_cast<double>(tm.L));
    EXPECT_EQ(lanes[t].number_or("g_ps", -1), static_cast<double>(tm.g));
    EXPECT_EQ(lanes[t].number_or("G_ps_per_byte", -1), tm.G_ps_per_byte);
  }
  std::size_t complete = 0;
  for (const json::Value& m : mt["messages"].as_array()) {
    if (!m["complete"].as_bool()) continue;
    ++complete;
    EXPECT_EQ(m.string_or("lane", ""),
              net::to_string(world.fabric().transport_for(
                  static_cast<int>(m.number_or("src", -1)),
                  static_cast<int>(m.number_or("dst", -1)),
                  static_cast<std::size_t>(m.number_or("bytes", 0)))));
  }
  EXPECT_GT(complete, 0u);
}

TEST(RunDir, NamesTheFirstFileItCannotWrite) {
  World world(2);
  tiny_run(world);
  // journal.json is taken by a directory: metrics.json is written first,
  // then the journal fails and is named.
  const std::string dir = fresh_dir("run_blocked");
  fs::create_directories(dir + "/journal.json");
  const std::string err = world.write_artifacts(dir);
  EXPECT_EQ(err.rfind(dir + "/journal.json: ", 0), 0u) << err;
  EXPECT_TRUE(fs::exists(dir + "/metrics.json"));
  // A run directory under a regular file cannot be created at all.
  const std::string under_file = dir + "/metrics.json/run";
  EXPECT_EQ(world.write_artifacts(under_file).rfind(under_file + ": ", 0),
            0u);
}

// CI observability smoke, traced stencil: every complete message's
// categories sum to its latency, which equals t_end - t_begin, and so does
// the critical path's.
TEST(RunDir, StencilMsgtraceDecompositionIdentity) {
  const std::string dir = fresh_dir("run_msgtrace");
  WorldParams wp;
  wp.obs.msgtrace = true;
  run_stencil_to(dir, 4, wp, ci_stencil(), false);
  const json::Value d = load(dir, obs::kMsgtraceFile, "narma.msgtrace.v1");
  const json::Array& msgs = d["messages"].as_array();
  ASSERT_FALSE(msgs.empty());
  std::size_t complete = 0;
  for (const json::Value& m : msgs) {
    if (!m["complete"].as_bool()) continue;
    ++complete;
    const double sum = decomp_sum(m["decomp_ps"]);
    const double latency = m.number_or("latency_ps", -1);
    EXPECT_EQ(sum, latency) << "msg " << m.number_or("id", 0);
    EXPECT_EQ(latency,
              m.number_or("t_end_ps", 0) - m.number_or("t_begin_ps", 0))
        << "msg " << m.number_or("id", 0);
  }
  EXPECT_GT(complete, 0u);
  const json::Value& cp = d["critical_path"];
  EXPECT_EQ(decomp_sum(cp["decomp_ps"]), cp.number_or("span_ps", -1));
  EXPECT_EQ(cp.number_or("span_ps", -1),
            cp.number_or("t_end_ps", 0) - cp.number_or("t_begin_ps", 0));
  EXPECT_GT(decomp_sum(cp["decomp_ps"]), 0);
}

// CI observability smoke, flight-recorder stencil (800 ps per point,
// profiled): two same-seed runs write byte-identical timeseries.json; the
// window deltas telescope to the metrics.json totals; no host-time family
// leaks into the recorder; the obs phase stays under 5% and unattributed
// host time under 10% of the profiled run.
TEST(RunDir, StencilTimeseriesTelescopesRepeatsAndFitsObsBudget) {
  WorldParams wp;
  wp.obs.timeseries = true;
  apps::StencilConfig cfg = ci_stencil();
  cfg.per_point = 800;
  const std::string dir = fresh_dir("run_timeseries");
  const std::string again = fresh_dir("run_timeseries_again");
  run_stencil_to(dir, 4, wp, cfg, true);
  run_stencil_to(again, 4, wp, cfg, true);
  EXPECT_EQ(slurp(dir + "/timeseries.json"), slurp(again + "/timeseries.json"))
      << "same-seed recorder dumps differ";

  const json::Value ts = load(dir, obs::kTimeseriesFile, "narma.timeseries.v1");
  const json::Value m = load(dir, obs::kMetricsFile, "narma.metrics.v1");
  const json::Array& fams = ts["families"].as_array();
  ASSERT_FALSE(ts["windows"].as_array().empty());
  for (const json::Value& f : fams)
    EXPECT_FALSE(host_family(f["name"].as_string()))
        << f["name"].as_string() << " leaked into the recorder";

  std::map<std::pair<std::string, int>, std::pair<double, double>> acc;
  for (const json::Value& w : ts["windows"].as_array())
    for (const json::Value& c : w["cells"].as_array()) {
      const json::Value& f =
          fams.at(static_cast<std::size_t>(c["family"].as_number()));
      auto& [n, sum] = acc[{f["name"].as_string(),
                            static_cast<int>(c["rank"].as_number())}];
      if (f["kind"].as_string() == "counter") {
        n += c["delta"].as_number();
      } else if (f["kind"].as_string() == "histogram") {
        n += c["delta_count"].as_number();
        sum += c["delta_sum"].as_number();
      }
    }
  std::size_t checked = 0;
  std::map<std::string, double> gauge;
  for (const json::Value& fam : m["metrics"].as_array()) {
    const std::string& name = fam["name"].as_string();
    const std::string& kind = fam["kind"].as_string();
    if (kind == "gauge")
      gauge[name] = fam["per_rank"][std::size_t{0}].number_or("value", 0);
    if (host_family(name) || kind == "gauge") continue;
    for (const json::Value& cell : fam["per_rank"].as_array()) {
      const auto [n, sum] =
          acc[{name, static_cast<int>(cell["rank"].as_number())}];
      if (kind == "counter") {
        EXPECT_EQ(n, cell["value"].as_number()) << name;
      } else {
        EXPECT_EQ(n, cell["count"].as_number()) << name;
        EXPECT_EQ(sum, cell["sum"].as_number()) << name;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 50u) << "too few cells telescoped";

  const double total = gauge["obs.profile_total_ns"];
  ASSERT_GT(total, 0);
  EXPECT_LT(gauge["obs.phase_obs_ns"] / total, 0.05);
  EXPECT_LT(gauge["obs.profile_unattributed_ns"] / total, 0.10);
}

// CI fail-stop recovery leg: one rank fails at the end of epoch 3, rolls
// back to the epoch-2 checkpoint and rejoins; the journal pairs the fail
// with the rejoin on the same rank, in order, beside checkpoint and replay
// records.
TEST(RunDir, FailStopJournalPairsFailWithRejoin) {
  WorldParams wp;
  wp.fabric.faults.fail_rate = 1.0;
  apps::StencilConfig cfg = ci_stencil();
  cfg.ft.enabled = true;
  cfg.ft.ckpt_interval = 2;
  cfg.ft.min_fail_epoch = 3;
  const std::string dir = fresh_dir("run_failstop");
  ft::FtStats victim;
  run_stencil_to(dir, 4, wp, cfg, false, &victim);
  EXPECT_EQ(victim.fails, 1u);

  const json::Value j = load(dir, obs::kJournalFile, "narma.journal.v1");
  std::map<std::string, std::vector<const json::Value*>> by_kind;
  for (const json::Value& r : j["records"].as_array())
    by_kind[r["kind"].as_string()].push_back(&r);
  ASSERT_EQ(by_kind["rank_fail"].size(), 1u);
  ASSERT_EQ(by_kind["rank_rejoin"].size(), 1u);
  const json::Value& fail = *by_kind["rank_fail"][0];
  const json::Value& rejoin = *by_kind["rank_rejoin"][0];
  EXPECT_EQ(fail["rank"].as_number(), rejoin["rank"].as_number());
  EXPECT_LT(fail["t_ps"].as_number(), rejoin["t_ps"].as_number());
  EXPECT_EQ(rejoin["a"].as_number(), 2.0);  // restored epoch
  EXPECT_FALSE(by_kind["ckpt_epoch"].empty());
  EXPECT_FALSE(by_kind["replay"].empty());
}

// CI scale gate: the 4096-rank stencil with metrics, recorder and journal
// writes all three schemas; metrics keep every rank, the recorder keeps
// per-rank rows for its 64 recorded ranks only.
TEST(RunDirSlow, Stencil4096WritesEverySchema) {
  WorldParams wp;
  wp.obs.timeseries = true;
  apps::StencilConfig cfg = ci_stencil();
  cfg.total_cols = 8192;
  cfg.iters = 1;
  const std::string dir = fresh_dir("run_4096");
  run_stencil_to(dir, 4096, wp, cfg, false);
  const json::Value m = load(dir, obs::kMetricsFile, "narma.metrics.v1");
  EXPECT_EQ(m.number_or("nranks", 0), 4096.0);
  load(dir, obs::kJournalFile, "narma.journal.v1");
  const json::Value ts = load(dir, obs::kTimeseriesFile, "narma.timeseries.v1");
  ASSERT_FALSE(ts["windows"].as_array().empty());
  for (const json::Value& w : ts["windows"].as_array())
    EXPECT_EQ(w["ranks"].as_array().size(),
              static_cast<std::size_t>(obs::TimeSeries::kMaxRecordedRanks));
  EXPECT_EQ(obs::TimeSeries::kMaxRecordedRanks, 64);
}
