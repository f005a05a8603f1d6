// narma_cli — experiment driver.
//
// Runs the paper's workloads with command-line parameters, without editing
// benchmark sources:
//
//   narma_cli pingpong --scheme=na --ranks=2 --bytes=8 --reps=100
//   narma_cli stencil  --variant=na --ranks=16 --rows=512 --cols=2048
//   narma_cli tree     --variant=na --ranks=64 --arity=16 --elems=8
//   narma_cli cholesky --variant=mp --ranks=8 --nt=24 --b=32 [--trace=f.json]
//
// Every subcommand prints one result line (plus the trace/metrics files if
// asked), suitable for scripting sweeps. `report` post-processes those
// files: per-category virtual-time breakdowns, top-k spans, and per-rank
// busy fractions.
#include <algorithm>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/stencil.hpp"
#include "apps/tree.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "narma/narma.hpp"

namespace {

using namespace narma;

struct Args {
  std::string command;
  std::map<std::string, std::string> kv;
  std::vector<std::string> positional;

  long get(const std::string& key, long fallback) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : std::stol(it->second);
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc > 1) a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) != 0) {
      a.positional.push_back(std::move(s));
      continue;
    }
    const auto eq = s.find('=');
    if (eq == std::string::npos) {
      a.kv[s.substr(2)] = "1";
    } else {
      a.kv[s.substr(2, eq - 2)] = s.substr(eq + 1);
    }
  }
  return a;
}

int usage() {
  std::fputs(
      "usage: narma_cli <command> [--key=value ...]\n"
      "\n"
      "commands:\n"
      "  pingpong  --scheme=na|mp|os --ranks=N --bytes=B --reps=R\n"
      "            [--intranode]\n"
      "  stencil   --variant=na|mp|fence|pscw --ranks=N --rows=R --cols=C\n"
      "            --iters=I [--ft ...]\n"
      "  tree      --variant=na|mp|pscw|vendor --ranks=N --arity=K\n"
      "            --elems=E --reps=R [--ft ...]\n"
      "  cholesky  --variant=na|mp|os --ranks=N --nt=T --b=B [--gflops=G]\n"
      "  report    [--trace=FILE] [--metrics=FILE] [--top=N]\n"
      "            summarize a recorded run: per-category virtual time\n"
      "            (with p50/p95 span durations), longest spans, per-rank\n"
      "            busy fractions, host-time phase attribution\n"
      "            (obs.phase_* gauges from --profile runs), per-backend\n"
      "            notification + drain-cost rows, histogram percentiles\n"
      "  timeline  --timeseries=FILE [--journal=FILE] [--perfetto=FILE]\n"
      "            [--top=N]\n"
      "            analyze a flight-recorder dump: per-window rank activity,\n"
      "            busiest counter families, model-residual rows, flagged\n"
      "            anomalies; --perfetto writes counter tracks for Perfetto\n"
      "  critpath  --msgtrace=FILE [--top=N]\n"
      "            analyze a causal message trace: critical-path category\n"
      "            breakdown, per-rank share, slowest messages, per-\n"
      "            category latency statistics\n"
      "  diff      <a.json> <b.json> [--top=N]\n"
      "            compare two metrics dumps (narma.metrics.v1 or .v2):\n"
      "            per-family reduced values, absolute + relative deltas,\n"
      "            top regressions, families added/removed\n"
      "\n"
      "common:     [--transport=aries|ramc|verbs]  inter-node backend\n"
      "                               (default aries; or env NARMA_TRANSPORT)\n"
      "            [--trace=FILE]     write a Chrome trace of the run\n"
      "            [--metrics=FILE]   write the metrics registry dump\n"
      "            [--msgtrace=FILE]  write the causal message trace\n"
      "            [--msgtrace-sample=N]  trace every Nth message (default 1)\n"
      "            [--timeseries=FILE]  record + write the flight-recorder\n"
      "                               time-series dump (narma.timeseries.v1)\n"
      "            [--timeseries-window-us=N]  snapshot cadence (default 100)\n"
      "            [--profile]        host-time phase profiling; results land\n"
      "                               in the metrics dump as obs.phase_*\n"
      "            [--journal=FILE]   write the anomaly journal\n"
      "                               (narma.journal.v1)\n"
      "            [--obs=dense|aggregate]  registry layout (NARMA_OBS);\n"
      "                               aggregate = O(shards) cells per family\n"
      "                               + top-k outliers + sampled ranks\n"
      "            [--obs-shards=N] [--obs-outlier-k=N]\n"
      "            [--obs-sample-ranks=N] [--obs-gauge-rank-limit=N]\n"
      "            [--journal-cap=N]  aggregate-mode / journal knobs\n"
      "\n"
      "fault tolerance (stencil + tree, NotifiedAccess variant only):\n"
      "            [--ft]                   run through the recovery manager\n"
      "            [--ft-fail-rate=R]       per-(rank,epoch) fail-stop rate\n"
      "            [--ft-max-fails=N]       fail-stop budget (default 1)\n"
      "            [--ft-interval=E]        checkpoint every E epochs\n"
      "            [--ft-partner-offset=K]  checkpoint partner (rank+K)%%n\n"
      "            [--ft-restart-us=T]      victim downtime before rejoin\n"
      "            [--ft-min-fail-epoch=E]  earliest epoch the plan fires\n"
      "            [--ft-log-cap=N]         notification-log bound per rank\n"
      "            [--ft-no-trim]           keep logs across checkpoints\n"
      "            [--ft-no-recover]        victims stay down (crash mode)\n"
      "            env NARMA_FT_* overrides any of these (see README)\n",
      stderr);
  return 2;
}

/// Applies the --transport flag: selects the inter-node backend for every
/// channel (intra-node stays on shm). Mirrors the NARMA_TRANSPORT env knob.
void apply_transport(WorldParams& wp, const Args& a) {
  const std::string t = a.get("transport", "");
  if (t.empty()) return;
  if (t == "aries")
    wp.fabric.inter_node = net::BackendKind::kAries;
  else if (t == "ramc")
    wp.fabric.inter_node = net::BackendKind::kRamc;
  else if (t == "verbs")
    wp.fabric.inter_node = net::BackendKind::kVerbs;
  else
    NARMA_FATAL("unknown --transport value") << " \"" << t << '"';
}

/// Applies the aggregate-observability flags. Mirrors the NARMA_OBS* env
/// knobs; a set env var still wins (resolve_params reads env last), so
/// sweeps driven by either mechanism behave the same.
void apply_obs_params(WorldParams& wp, const Args& a) {
  const std::string mode = a.get("obs", "");
  if (mode == "dense")
    wp.obs.obs_mode = obs::ObsMode::kDense;
  else if (mode == "aggregate")
    wp.obs.obs_mode = obs::ObsMode::kAggregate;
  else if (!mode.empty())
    NARMA_FATAL("unknown --obs value") << " \"" << mode << '"';
  if (a.kv.count("obs-shards"))
    wp.obs.obs_shards = static_cast<int>(a.get("obs-shards", 0));
  if (a.kv.count("obs-outlier-k"))
    wp.obs.outlier_k = static_cast<int>(a.get("obs-outlier-k", 0));
  if (a.kv.count("obs-sample-ranks"))
    wp.obs.sample_ranks = static_cast<int>(a.get("obs-sample-ranks", 0));
  if (a.kv.count("obs-gauge-rank-limit"))
    wp.obs.perfetto_gauge_rank_limit =
        static_cast<int>(a.get("obs-gauge-rank-limit", 0));
  if (a.kv.count("journal-cap"))
    wp.obs.journal_capacity =
        static_cast<std::size_t>(std::max(0L, a.get("journal-cap", 0)));
}

/// Applies the --ft* flags onto an app's recovery params (and the fail plan
/// onto the world's fault params), then layers the NARMA_FT_* env on top —
/// the same flags-then-env precedence every other knob here follows.
/// Returns whether the ft driver is enabled.
bool apply_ft(WorldParams& wp, ft::FtParams& p, const Args& a) {
  if (a.kv.count("ft")) p.enabled = true;
  if (a.kv.count("ft-interval"))
    p.ckpt_interval = static_cast<int>(a.get("ft-interval", 0));
  if (a.kv.count("ft-partner-offset"))
    p.partner_offset = static_cast<int>(a.get("ft-partner-offset", 0));
  if (a.kv.count("ft-restart-us"))
    p.restart = us(static_cast<double>(a.get("ft-restart-us", 0)));
  if (a.kv.count("ft-min-fail-epoch"))
    p.min_fail_epoch =
        static_cast<std::uint64_t>(a.get("ft-min-fail-epoch", 0));
  if (a.kv.count("ft-log-cap"))
    p.log_capacity = static_cast<std::size_t>(a.get("ft-log-cap", 0));
  if (a.kv.count("ft-no-trim")) p.eager_trim = false;
  if (a.kv.count("ft-no-recover")) p.recover = false;
  if (a.kv.count("ft-fail-rate"))
    wp.fabric.faults.fail_rate = std::stod(a.get("ft-fail-rate", "0"));
  if (a.kv.count("ft-max-fails"))
    wp.fabric.faults.max_fails = static_cast<int>(a.get("ft-max-fails", 1));
  p = ft::FtParams::from_env(p);
  return p.enabled;
}

/// One-line recovery summary after an ft run: the victim's stats carry the
/// recovery time, any rank's carry the plan-wide victim/checkpoint view.
void print_ft_summary(const char* app, const ft::FtStats& victim,
                      const ft::FtStats& rank0) {
  const ft::FtStats& s = victim.fails > 0 ? victim : rank0;
  std::printf(
      "%s-ft fails=%llu victim=%d restored_epoch=%llu recovery_us=%.2f "
      "ckpts=%llu ckpt_kib=%.1f replay=%llu dupes=%llu\n",
      app, static_cast<unsigned long long>(s.fails), s.victim,
      static_cast<unsigned long long>(s.restored_epoch),
      to_us(s.recovery_time),
      static_cast<unsigned long long>(rank0.ckpts),
      static_cast<double>(rank0.ckpt_bytes) / 1024.0,
      static_cast<unsigned long long>(s.replay_applied),
      static_cast<unsigned long long>(s.replay_dupes));
}

/// Enables the observability sinks a run asked for (call before run()).
void enable_observability(World& world, const Args& a) {
  if (a.kv.count("trace")) world.enable_tracing();
  if (a.kv.count("msgtrace"))
    world.enable_msgtrace(
        static_cast<std::uint64_t>(a.get("msgtrace-sample", 0)));
  // Profiler before recorder: the recorder's probe charges itself to the
  // obs phase only when the profiler already exists.
  if (a.kv.count("profile")) world.enable_profiling();
  if (a.kv.count("timeseries"))
    world.enable_timeseries(
        us(static_cast<Time>(a.get("timeseries-window-us", 0))));
}

/// Writes the requested artifacts of a finished run (trace + metrics +
/// msgtrace).
void dump_artifacts(World& world, const Args& a) {
  if (a.kv.count("trace")) world.dump_trace(a.get("trace", "trace.json"));
  if (a.kv.count("metrics"))
    world.dump_metrics(a.get("metrics", "metrics.json"));
  if (a.kv.count("msgtrace"))
    world.dump_msgtrace(a.get("msgtrace", "msgtrace.json"));
  if (a.kv.count("timeseries"))
    world.dump_timeseries(a.get("timeseries", "timeseries.json"));
  if (a.kv.count("journal"))
    world.dump_journal(a.get("journal", "journal.json"));
}

// --- report ------------------------------------------------------------------

/// Prints the obs self-cost line shared by both schema paths: the registry
/// footprint gauge plus the journal depth, when the run recorded them.
void print_obs_footprint(double registry_bytes, double journal_depth) {
  if (registry_bytes <= 0 && journal_depth <= 0) return;
  std::printf("\nobs self-cost: registry ~%.1f KiB, journal depth %lld\n",
              registry_bytes / 1024.0,
              static_cast<long long>(journal_depth));
}

/// Aggregate-mode (narma.metrics.v2) sections of `report`: whole-family
/// reductions per kind, top-k outlier ranks, and the sampled-rank busy
/// table that replaces the dense per-rank one.
int report_metrics_v2(const json::Value& doc, const std::string& path) {
  const json::Array& fams = doc["metrics"].as_array();
  std::printf(
      "\naggregate metrics %s: %d ranks, %d shards, %zu sampled ranks, "
      "outlier_k=%lld, %zu families\n",
      path.c_str(), static_cast<int>(doc.number_or("nranks", 0)),
      static_cast<int>(doc.number_or("shards", 0)),
      doc["sample_ranks"].as_array().size(),
      static_cast<long long>(doc.number_or("outlier_k", 0)), fams.size());

  auto find_fam = [&](const std::string& name) -> const json::Value& {
    static const json::Value kNull;
    for (const json::Value& fam : fams)
      if (fam.string_or("name", "") == name) return fam;
    return kNull;
  };

  // Whole-family reductions, one table per kind. These are exact — shard
  // cells plus sampled cells partition every update (see obs/metrics.hpp).
  Table c_table({"counter", "sum", "active_ranks", "max_rank_total"});
  Table g_table({"gauge", "last", "high_water"});
  Table h_table({"histogram", "count", "p50", "p90", "p99", "max"});
  bool any_c = false, any_g = false, any_h = false;
  for (const json::Value& fam : fams) {
    const std::string kind = fam.string_or("kind", "");
    const json::Value& ag = fam["aggregate"];
    if (kind == "counter") {
      any_c = true;
      c_table.add_row(
          {fam.string_or("name", "?"),
           Table::fmt(static_cast<long long>(ag.number_or("sum", 0))),
           Table::fmt(static_cast<long long>(ag.number_or("active_ranks", 0))),
           Table::fmt(static_cast<long long>(ag.number_or("max", 0)))});
    } else if (kind == "gauge") {
      any_g = true;
      g_table.add_row(
          {fam.string_or("name", "?"),
           Table::fmt(static_cast<long long>(ag.number_or("last", 0))),
           Table::fmt(static_cast<long long>(ag.number_or("high_water", 0)))});
    } else if (kind == "histogram") {
      any_h = true;
      h_table.add_row(
          {fam.string_or("name", "?"),
           Table::fmt(static_cast<long long>(ag.number_or("count", 0))),
           Table::fmt(ag.number_or("p50", 0)), Table::fmt(ag.number_or("p90", 0)),
           Table::fmt(ag.number_or("p99", 0)),
           Table::fmt(static_cast<long long>(ag.number_or("max", 0)))});
    }
  }
  if (any_c) {
    std::printf("\ncounters (whole-family, exact):\n");
    c_table.print();
  }
  if (any_g) {
    std::printf("\ngauges (last-wins / global high-water):\n");
    g_table.print();
  }
  if (any_h) {
    std::printf("\nhistograms (merged buckets):\n");
    h_table.print();
  }

  // Top-k outlier ranks per family (value-ordered in the dump).
  {
    Table o_table({"family", "top ranks (rank:value)"});
    bool any = false;
    for (const json::Value& fam : fams) {
      const json::Array& out = fam["outliers"].as_array();
      if (out.empty()) continue;
      any = true;
      std::string cells;
      for (const json::Value& o : out) {
        if (!cells.empty()) cells += "  ";
        cells += Table::fmt(static_cast<long long>(o.number_or("rank", -1)));
        cells += ':';
        cells += Table::fmt(static_cast<long long>(o.number_or("value", 0)));
      }
      o_table.add_row({fam.string_or("name", "?"), cells});
    }
    if (any) {
      std::printf("\noutlier retention (top-k ranks by running max):\n");
      o_table.print();
    }
  }

  // Sampled-rank busy fractions: the aggregate-mode stand-in for the dense
  // per-rank table, built from the exact cells of the sample reservoir.
  {
    const json::Value& busy = find_fam("sim.busy_ns")["sampled"];
    const json::Value& blocked = find_fam("sim.blocked_ns")["sampled"];
    const json::Value& total = find_fam("sim.total_ns")["sampled"];
    if (busy.is_array() && total.is_array() &&
        busy.as_array().size() == total.as_array().size()) {
      Table busy_table(
          {"rank", "busy_ms", "blocked_ms", "total_ms", "busy_frac"});
      const json::Array& ba = busy.as_array();
      const json::Array& ta = total.as_array();
      for (std::size_t i = 0; i < ba.size(); ++i) {
        const double b = ba[i].number_or("value", 0);
        const double w = blocked.is_array() && i < blocked.as_array().size()
                             ? blocked.as_array()[i].number_or("value", 0)
                             : 0.0;
        const double t = ta[i].number_or("value", 0);
        busy_table.add_row(
            {Table::fmt(static_cast<long long>(ba[i].number_or("rank", -1))),
             Table::fmt(b / 1e6), Table::fmt(w / 1e6), Table::fmt(t / 1e6),
             Table::fmt(t > 0 ? b / t : 0.0)});
      }
      std::printf("\nsampled-rank busy fraction:\n");
      busy_table.print();
    }
  }

  print_obs_footprint(
      find_fam("obs.registry_bytes")["aggregate"].number_or("high_water", 0),
      find_fam("obs.journal_depth")["aggregate"].number_or("high_water", 0));
  return 0;
}

/// Metrics-dump sections of `report`: per-rank busy fractions, host-time
/// phase attribution (from --profile runs), per-backend notification and
/// drain-cost rows, and interpolated histogram percentiles.
int report_metrics(const Args& a) {
  const std::string metrics_path = a.get("metrics", "metrics.json");
  const json::ParseResult m = json::parse_file(metrics_path);
  if (!m.ok) {
    std::fprintf(stderr, "report: %s: %s (offset %zu)\n", metrics_path.c_str(),
                 m.error.c_str(), m.error_pos);
    return 1;
  }
  const std::string schema = m.value.string_or("schema", "");
  if (schema == "narma.metrics.v2")
    return report_metrics_v2(m.value, metrics_path);
  if (schema != "narma.metrics.v1") {
    std::fprintf(stderr, "report: %s: unknown metrics schema '%s'\n",
                 metrics_path.c_str(), schema.c_str());
    return 1;
  }
  const int nranks = static_cast<int>(m.value.number_or("nranks", 0));
  const json::Array& fams = m.value["metrics"].as_array();
  auto per_rank_of = [&](const std::string& name) -> const json::Value& {
    static const json::Value kNull;
    for (const json::Value& fam : fams)
      if (fam.string_or("name", "") == name) return fam["per_rank"];
    return kNull;
  };
  auto rank0_value = [&](const std::string& name) -> double {
    const json::Value& pr = per_rank_of(name);
    return pr.is_array() && !pr.as_array().empty()
               ? pr.as_array()[0].number_or("value", 0)
               : 0.0;
  };

  // Per-rank busy fractions from the sim.* gauges.
  const json::Value& busy = per_rank_of("sim.busy_ns");
  const json::Value& blocked = per_rank_of("sim.blocked_ns");
  const json::Value& total = per_rank_of("sim.total_ns");
  if (!busy.is_array() || !total.is_array()) {
    std::fprintf(stderr, "report: %s has no sim.busy_ns/sim.total_ns gauges\n",
                 metrics_path.c_str());
    return 1;
  }
  Table busy_table({"rank", "busy_ms", "blocked_ms", "total_ms", "busy_frac"});
  for (int r = 0; r < nranks; ++r) {
    const double b = busy[static_cast<std::size_t>(r)].number_or("value", 0);
    const double w =
        blocked[static_cast<std::size_t>(r)].number_or("value", 0);
    const double t = total[static_cast<std::size_t>(r)].number_or("value", 0);
    busy_table.add_row({Table::fmt(static_cast<long long>(r)),
                        Table::fmt(b / 1e6), Table::fmt(w / 1e6),
                        Table::fmt(t / 1e6), Table::fmt(t > 0 ? b / t : 0.0)});
  }
  std::printf("\nper-rank busy fraction (from %s):\n", metrics_path.c_str());
  busy_table.print();

  // Host-time phase attribution (--profile runs export obs.phase_* gauges).
  // The matching/obs/plumbing split of real host wall-clock — the paper's
  // simulator-cost question, answered from the dump alone.
  const double prof_total = rank0_value("obs.profile_total_ns");
  if (prof_total > 0) {
    static const char* kPhases[] = {"engine_pop", "callback",  "rank_exec",
                                    "match",      "transfer",  "app_compute",
                                    "obs"};
    Table phase_table({"phase", "host_ms", "calls", "% of run"});
    double attributed = 0;
    for (const char* ph : kPhases) {
      const double ns_v =
          rank0_value(std::string("obs.phase_") + ph + "_ns");
      const double calls =
          rank0_value(std::string("obs.phase_") + ph + "_calls");
      attributed += ns_v;
      phase_table.add_row(
          {ph, Table::fmt(ns_v / 1e6),
           Table::fmt(static_cast<long long>(calls)),
           Table::fmt(100.0 * ns_v / prof_total, 1)});
    }
    const double unattr = rank0_value("obs.profile_unattributed_ns");
    phase_table.add_row({"(unattributed)", Table::fmt(unattr / 1e6), "-",
                         Table::fmt(100.0 * unattr / prof_total, 1)});
    phase_table.add_row({"(total)", Table::fmt(prof_total / 1e6), "-",
                         Table::fmt(100.0, 1)});
    std::printf("\nhost-time phase attribution:\n");
    phase_table.print();
    const double obs_ns = rank0_value("obs.phase_obs_ns");
    std::printf("attributed %.1f%% of host run; obs self-overhead %.2f%%\n",
                100.0 * attributed / prof_total,
                100.0 * obs_ns / prof_total);
  }

  // Per-backend notification delivery + consumer drain cost. Rows appear
  // only for backends the run's routes actually used (the registry never
  // registers the rest).
  {
    static const char* kBackends[] = {"shm", "aries", "ramc", "verbs"};
    Table be_table({"backend", "notifs", "drain_ms", "drain_ns/notif"});
    bool any = false;
    for (const char* be : kBackends) {
      const json::Value& notifs =
          per_rank_of(std::string("net.") + be + "_notifs");
      if (!notifs.is_array()) continue;
      any = true;
      double n = 0, drain_ps = 0;
      for (const json::Value& cell : notifs.as_array())
        n += cell.number_or("value", 0);
      const json::Value& drain =
          per_rank_of(std::string("net.") + be + "_drain_ps");
      if (drain.is_array())
        for (const json::Value& cell : drain.as_array())
          drain_ps += cell.number_or("value", 0);
      be_table.add_row({be, Table::fmt(static_cast<long long>(n)),
                        Table::fmt(drain_ps / 1e9),
                        Table::fmt(n > 0 ? drain_ps / 1e3 / n : 0.0)});
    }
    if (any) {
      std::printf("\nper-backend notifications (virtual drain cost):\n");
      be_table.print();
    }
  }

  // Histogram families: aggregate count plus the interpolated percentiles
  // of the busiest rank (highest count), typical-value columns for sweeps.
  {
    Table h_table({"histogram", "count", "p50", "p90", "p99", "max"});
    bool any = false;
    for (const json::Value& fam : fams) {
      if (fam.string_or("kind", "") != "histogram") continue;
      const json::Value& pr = fam["per_rank"];
      if (!pr.is_array()) continue;
      double count = 0;
      const json::Value* top = nullptr;
      for (const json::Value& cell : pr.as_array()) {
        count += cell.number_or("count", 0);
        if (!top || cell.number_or("count", 0) > top->number_or("count", 0))
          top = &cell;
      }
      if (!top || count == 0) continue;
      any = true;
      h_table.add_row({fam.string_or("name", "?"),
                       Table::fmt(static_cast<long long>(count)),
                       Table::fmt(top->number_or("p50", 0)),
                       Table::fmt(top->number_or("p90", 0)),
                       Table::fmt(top->number_or("p99", 0)),
                       Table::fmt(top->number_or("max", 0))});
    }
    if (any) {
      std::printf("\nhistogram percentiles (busiest rank):\n");
      h_table.print();
    }
  }

  // Obs self-cost gauges (rank 0 carries them in dense mode).
  {
    auto hw0 = [&](const std::string& name) -> double {
      const json::Value& pr = per_rank_of(name);
      return pr.is_array() && !pr.as_array().empty()
                 ? pr.as_array()[0].number_or("high_water", 0)
                 : 0.0;
    };
    print_obs_footprint(hw0("obs.registry_bytes"), hw0("obs.journal_depth"));
  }
  return 0;
}

int run_report(const Args& a) {
  if (!a.kv.count("trace")) {
    if (a.kv.count("metrics")) return report_metrics(a);
    std::fputs("report: --trace=FILE and/or --metrics=FILE is required\n",
               stderr);
    return 2;
  }
  const std::string trace_path = a.get("trace", "trace.json");
  // --top is the documented spelling; --topk stays as a fallback.
  const auto topk = static_cast<std::size_t>(a.get("top", a.get("topk", 10)));

  const json::ParseResult doc = json::parse_file(trace_path);
  if (!doc.ok) {
    std::fprintf(stderr, "report: %s: %s (offset %zu)\n", trace_path.c_str(),
                 doc.error.c_str(), doc.error_pos);
    return 1;
  }
  const json::Array& events = doc.value["traceEvents"].as_array();
  if (events.empty()) {
    std::fprintf(stderr, "report: %s has no traceEvents\n",
                 trace_path.c_str());
    return 1;
  }

  struct Span {
    std::string name, cat;
    int rank;
    double ts_us, dur_us;
  };
  struct CatAgg {
    std::uint64_t spans = 0;
    double total_us = 0;
    std::vector<double> durs_us;
  };
  std::vector<Span> spans;
  std::map<std::string, CatAgg> by_cat;
  std::map<int, double> rank_span_us;  // per-rank time inside spans
  std::map<int, double> rank_end_us;   // per-rank last event end
  std::uint64_t counter_events = 0;

  for (const json::Value& e : events) {
    const std::string ph = e.string_or("ph", "");
    const int rank = static_cast<int>(e.number_or("tid", 0));
    if (ph == "C") {
      ++counter_events;
      continue;
    }
    if (ph != "X") continue;
    Span s{e.string_or("name", "?"), e.string_or("cat", "?"), rank,
           e.number_or("ts", 0), e.number_or("dur", 0)};
    CatAgg& agg = by_cat[s.cat];
    ++agg.spans;
    agg.total_us += s.dur_us;
    agg.durs_us.push_back(s.dur_us);
    rank_span_us[rank] += s.dur_us;
    rank_end_us[rank] =
        std::max(rank_end_us[rank], s.ts_us + s.dur_us);
    spans.push_back(std::move(s));
  }

  double trace_end_us = 0;
  for (const auto& [r, end] : rank_end_us)
    trace_end_us = std::max(trace_end_us, end);

  std::printf("trace %s: %zu events (%zu spans, %llu counter points), "
              "end of last span at %.3f us\n",
              trace_path.c_str(), events.size(), spans.size(),
              static_cast<unsigned long long>(counter_events), trace_end_us);

  // Per-category breakdown: span time summed over all ranks; the percent
  // column is relative to (ranks x trace end), i.e. total rank-time.
  const double rank_time_us =
      trace_end_us * static_cast<double>(std::max<std::size_t>(
                         rank_end_us.size(), 1));
  Table cat_table(
      {"category", "spans", "total_ms", "p50_us", "p95_us", "% of rank-time"});
  double traced_total_us = 0;
  std::vector<double> all_durs_us;
  for (const auto& [cat, agg] : by_cat) {
    traced_total_us += agg.total_us;
    all_durs_us.insert(all_durs_us.end(), agg.durs_us.begin(),
                       agg.durs_us.end());
    cat_table.add_row({cat, Table::fmt(static_cast<std::size_t>(agg.spans)),
                       Table::fmt(agg.total_us / 1e3),
                       Table::fmt(stats::quantile(agg.durs_us, 0.50)),
                       Table::fmt(stats::quantile(agg.durs_us, 0.95)),
                       Table::fmt(rank_time_us > 0
                                      ? 100.0 * agg.total_us / rank_time_us
                                      : 0.0,
                                  1)});
  }
  cat_table.add_row({"(all)",
                     Table::fmt(spans.size()),
                     Table::fmt(traced_total_us / 1e3),
                     Table::fmt(all_durs_us.empty()
                                    ? 0.0
                                    : stats::quantile(all_durs_us, 0.50)),
                     Table::fmt(all_durs_us.empty()
                                    ? 0.0
                                    : stats::quantile(all_durs_us, 0.95)),
                     Table::fmt(rank_time_us > 0
                                    ? 100.0 * traced_total_us / rank_time_us
                                    : 0.0,
                                1)});
  std::printf("\nper-category virtual time:\n");
  cat_table.print();

  // Top-k spans by duration.
  std::sort(spans.begin(), spans.end(),
            [](const Span& x, const Span& y) { return x.dur_us > y.dur_us; });
  Table top_table({"span", "category", "rank", "start_us", "dur_us"});
  for (std::size_t i = 0; i < std::min(topk, spans.size()); ++i) {
    const Span& s = spans[i];
    top_table.add_row({s.name, s.cat, Table::fmt(static_cast<long long>(
                                          s.rank)),
                       Table::fmt(s.ts_us), Table::fmt(s.dur_us)});
  }
  std::printf("\ntop %zu spans:\n", std::min(topk, spans.size()));
  top_table.print();

  // Metrics-dump sections (busy fractions, phase attribution, backends,
  // histogram percentiles).
  if (a.kv.count("metrics")) return report_metrics(a);
  return 0;
}

// --- diff --------------------------------------------------------------------

/// One family of a metrics dump reduced to a single comparable number:
/// counters to the whole-family sum, gauges to the global high-water,
/// histograms to the total sample count. Both schemas reduce to the same
/// quantity — v1 by folding per_rank, v2 by reading the aggregate section —
/// so dense and aggregate dumps of the same run diff as equal.
struct ReducedFamily {
  std::string kind;
  double value = 0;
};

bool reduce_metrics(const json::Value& doc,
                    std::map<std::string, ReducedFamily>& out,
                    std::string& err) {
  const std::string schema = doc.string_or("schema", "");
  if (schema != "narma.metrics.v1" && schema != "narma.metrics.v2") {
    err = "unknown metrics schema '" + schema + "'";
    return false;
  }
  const bool v2 = schema == "narma.metrics.v2";
  for (const json::Value& fam : doc["metrics"].as_array()) {
    const std::string name = fam.string_or("name", "?");
    ReducedFamily red;
    red.kind = fam.string_or("kind", "?");
    if (v2) {
      const json::Value& ag = fam["aggregate"];
      red.value = red.kind == "counter" ? ag.number_or("sum", 0)
                  : red.kind == "gauge" ? ag.number_or("high_water", 0)
                                        : ag.number_or("count", 0);
    } else {
      for (const json::Value& cell : fam["per_rank"].as_array()) {
        if (red.kind == "counter")
          red.value += cell.number_or("value", 0);
        else if (red.kind == "gauge")
          red.value = std::max(red.value, cell.number_or("high_water", 0));
        else
          red.value += cell.number_or("count", 0);
      }
    }
    out[name] = std::move(red);
  }
  return true;
}

int run_diff(const Args& a) {
  if (a.positional.size() != 2) {
    std::fputs("diff: exactly two metrics dumps required: "
               "narma_cli diff <a.json> <b.json> [--top=N]\n",
               stderr);
    return 2;
  }
  const auto topk = static_cast<std::size_t>(a.get("top", 15));
  std::map<std::string, ReducedFamily> base, cur;
  for (int side = 0; side < 2; ++side) {
    const std::string& path = a.positional[static_cast<std::size_t>(side)];
    const json::ParseResult doc = json::parse_file(path);
    if (!doc.ok) {
      std::fprintf(stderr, "diff: %s: %s (offset %zu)\n", path.c_str(),
                   doc.error.c_str(), doc.error_pos);
      return 1;
    }
    std::string err;
    if (!reduce_metrics(doc.value, side ? cur : base, err)) {
      std::fprintf(stderr, "diff: %s: %s\n", path.c_str(), err.c_str());
      return 1;
    }
  }

  struct Row {
    std::string name, kind;
    double a, b, delta, rel;
  };
  std::vector<Row> rows;
  std::vector<std::string> added, removed;
  std::size_t unchanged = 0;
  for (const auto& [name, rb] : base) {
    auto it = cur.find(name);
    if (it == cur.end()) {
      removed.push_back(name);
      continue;
    }
    const double d = it->second.value - rb.value;
    if (d == 0) {
      ++unchanged;
      continue;
    }
    const double denom = std::max(std::abs(rb.value), 1.0);
    rows.push_back({name, rb.kind, rb.value, it->second.value, d,
                    d / denom});
  }
  for (const auto& [name, rc] : cur)
    if (!base.count(name)) added.push_back(name);

  std::printf(
      "diff %s -> %s: %zu families compared, %zu changed, %zu unchanged, "
      "%zu added, %zu removed\n",
      a.positional[0].c_str(), a.positional[1].c_str(),
      base.size() - removed.size(), rows.size(), unchanged, added.size(),
      removed.size());

  // Largest movers by relative delta (ties broken by absolute delta) —
  // the regression shortlist for sweep comparisons.
  std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    const double rx = std::abs(x.rel), ry = std::abs(y.rel);
    if (rx != ry) return rx > ry;
    const double dx = std::abs(x.delta), dy = std::abs(y.delta);
    if (dx != dy) return dx > dy;
    return x.name < y.name;
  });
  if (!rows.empty()) {
    Table d_table({"family", "kind", "base", "new", "delta", "delta%"});
    for (std::size_t i = 0; i < std::min(topk, rows.size()); ++i) {
      const Row& r = rows[i];
      d_table.add_row({r.name, r.kind, Table::fmt(r.a), Table::fmt(r.b),
                       Table::fmt(r.delta), Table::fmt(100.0 * r.rel, 1)});
    }
    std::printf("\ntop %zu movers (by relative delta):\n",
                std::min(topk, rows.size()));
    d_table.print();
  }
  for (const std::string& n : added)
    std::printf("added:   %s\n", n.c_str());
  for (const std::string& n : removed)
    std::printf("removed: %s\n", n.c_str());
  return 0;
}

// --- critpath ----------------------------------------------------------------

/// The latency categories of the narma.msgtrace.v1 decomposition, in the
/// same order MsgTrace emits them (see src/obs/msgtrace.hpp).
constexpr const char* kLatCats[] = {"src_overhead", "chan_queue", "gap",
                                    "ser",          "wire",       "blocked",
                                    "match",        "retry",      "local"};

int run_critpath(const Args& a) {
  if (!a.kv.count("msgtrace")) {
    std::fputs("critpath: --msgtrace=FILE is required\n", stderr);
    return 2;
  }
  const std::string path = a.get("msgtrace", "msgtrace.json");
  const auto topk = static_cast<std::size_t>(a.get("top", 10));

  const json::ParseResult doc = json::parse_file(path);
  if (!doc.ok) {
    std::fprintf(stderr, "critpath: %s: %s (offset %zu)\n", path.c_str(),
                 doc.error.c_str(), doc.error_pos);
    return 1;
  }
  if (doc.value.string_or("schema", "") != "narma.msgtrace.v1") {
    std::fprintf(stderr, "critpath: %s: unknown msgtrace schema '%s'\n",
                 path.c_str(), doc.value.string_or("schema", "").c_str());
    return 1;
  }

  const json::Array& messages = doc.value["messages"].as_array();
  std::printf(
      "msgtrace %s: %d ranks, sample_every=%lld, %lld injected / %lld "
      "sampled / %lld hop records dropped, %zu messages\n",
      path.c_str(), static_cast<int>(doc.value.number_or("nranks", 0)),
      static_cast<long long>(doc.value.number_or("sample_every", 1)),
      static_cast<long long>(doc.value.number_or("injections", 0)),
      static_cast<long long>(doc.value.number_or("sampled", 0)),
      static_cast<long long>(doc.value.number_or("dropped", 0)),
      messages.size());

  // Decomposition identity across all complete messages: per-message
  // category times must sum exactly to the end-to-end latency (all values
  // are integer picoseconds, so the check is exact).
  std::size_t complete = 0, violations = 0;
  std::map<std::string, std::vector<double>> cat_lat_us;
  struct Msg {
    std::string op;
    int src, dst;
    double bytes, lat_us;
    std::string top_cat;
    double top_cat_us;
    long long flow_id;
  };
  std::vector<Msg> msgs;
  for (const json::Value& m : messages) {
    if (!m["complete"].as_bool()) continue;
    ++complete;
    const json::Value& d = m["decomp_ps"];
    double sum_ps = 0;
    std::string top_cat = "-";
    double top_ps = -1;
    for (const char* cat : kLatCats) {
      const double v = d.number_or(cat, 0);
      sum_ps += v;
      if (v > 0) cat_lat_us[cat].push_back(v / 1e6);
      if (v > top_ps) {
        top_ps = v;
        top_cat = cat;
      }
    }
    if (sum_ps != m.number_or("latency_ps", 0)) ++violations;
    msgs.push_back({m.string_or("op", "?"),
                    static_cast<int>(m.number_or("src", -1)),
                    static_cast<int>(m.number_or("dst", -1)),
                    m.number_or("bytes", 0), m.number_or("latency_ps", 0) / 1e6,
                    top_cat, top_ps / 1e6,
                    static_cast<long long>(m.number_or("flow_id", 0))});
  }
  std::printf("decomposition identity: %zu complete messages, %zu violations%s\n",
              complete, violations, violations ? " [FAIL]" : " [ok]");

  // Critical path: category breakdown and per-rank share.
  const json::Value& cp = doc.value["critical_path"];
  const double span_ps = cp.number_or("span_ps", 0);
  std::printf("\ncritical path: %.3f us across %zu messages (t=%.3f..%.3f us)\n",
              span_ps / 1e6, cp["messages"].as_array().size(),
              cp.number_or("t_begin_ps", 0) / 1e6,
              cp.number_or("t_end_ps", 0) / 1e6);
  Table cp_table({"category", "time_us", "% of path"});
  double cp_sum_ps = 0;
  for (const char* cat : kLatCats) {
    const double v = cp["decomp_ps"].number_or(cat, 0);
    cp_sum_ps += v;
    cp_table.add_row({cat, Table::fmt(v / 1e6),
                      Table::fmt(span_ps > 0 ? 100.0 * v / span_ps : 0.0, 1)});
  }
  cp_table.add_row({"(sum)", Table::fmt(cp_sum_ps / 1e6),
                    Table::fmt(span_ps > 0 ? 100.0 * cp_sum_ps / span_ps : 0.0,
                               1)});
  cp_table.print();

  const json::Value& per_rank = cp["per_rank_ps"];
  if (per_rank.is_array() && span_ps > 0) {
    Table rank_table({"rank", "path_time_us", "% of path"});
    const json::Array& pr = per_rank.as_array();
    for (std::size_t r = 0; r < pr.size(); ++r) {
      const double v = pr[r].as_number();
      if (v <= 0) continue;
      rank_table.add_row({Table::fmt(static_cast<long long>(r)),
                          Table::fmt(v / 1e6),
                          Table::fmt(100.0 * v / span_ps, 1)});
    }
    std::printf("\ncritical-path share per rank:\n");
    rank_table.print();
  }

  // Per-category latency statistics across complete messages.
  Table stat_table({"category", "msgs", "mean_us", "p50_us", "p95_us",
                    "max_us"});
  for (const char* cat : kLatCats) {
    auto it = cat_lat_us.find(cat);
    if (it == cat_lat_us.end()) continue;
    const std::vector<double>& xs = it->second;
    stat_table.add_row({cat, Table::fmt(xs.size()),
                        Table::fmt(stats::mean(xs)),
                        Table::fmt(stats::quantile(xs, 0.50)),
                        Table::fmt(stats::quantile(xs, 0.95)),
                        Table::fmt(stats::max(xs))});
  }
  std::printf("\nper-category latency across messages:\n");
  stat_table.print();

  // Top-k slowest messages.
  std::sort(msgs.begin(), msgs.end(),
            [](const Msg& x, const Msg& y) { return x.lat_us > y.lat_us; });
  // flow_id lets the reader jump from a row to the matching Perfetto flow
  // arrow in the --trace output (same id namespace).
  Table top_table({"op", "src", "dst", "bytes", "latency_us", "dominant",
                   "dom_us", "flow_id"});
  for (std::size_t i = 0; i < std::min(topk, msgs.size()); ++i) {
    const Msg& m = msgs[i];
    top_table.add_row({m.op, Table::fmt(static_cast<long long>(m.src)),
                       Table::fmt(static_cast<long long>(m.dst)),
                       Table::fmt(static_cast<long long>(m.bytes)),
                       Table::fmt(m.lat_us), m.top_cat,
                       Table::fmt(m.top_cat_us), Table::fmt(m.flow_id)});
  }
  std::printf("\ntop %zu slowest messages:\n", std::min(topk, msgs.size()));
  top_table.print();
  return violations ? 1 : 0;
}

// --- timeline ----------------------------------------------------------------

/// Prints an anomaly-journal dump (narma.journal.v1): the bounded,
/// virtual-time-ordered record of faults, backpressure episodes, overflow
/// spills, stragglers, and model-residual flags.
int print_journal(const Args& a) {
  const std::string path = a.get("journal", "journal.json");
  const json::ParseResult doc = json::parse_file(path);
  if (!doc.ok) {
    std::fprintf(stderr, "timeline: %s: %s (offset %zu)\n", path.c_str(),
                 doc.error.c_str(), doc.error_pos);
    return 1;
  }
  if (doc.value.string_or("schema", "") != "narma.journal.v1") {
    std::fprintf(stderr, "timeline: %s: unknown journal schema '%s'\n",
                 path.c_str(), doc.value.string_or("schema", "").c_str());
    return 1;
  }
  const json::Array& records = doc.value["records"].as_array();
  std::printf(
      "\njournal %s: %lld appended, %lld dropped (capacity %lld), "
      "%zu retained\n",
      path.c_str(), static_cast<long long>(doc.value.number_or("appended", 0)),
      static_cast<long long>(doc.value.number_or("dropped", 0)),
      static_cast<long long>(doc.value.number_or("capacity", 0)),
      records.size());
  if (records.empty()) {
    std::printf("journal: clean run (no anomalies recorded)\n");
    return 0;
  }
  Table j_table({"t_us", "kind", "rank", "peer", "detail"});
  for (const json::Value& r : records)
    j_table.add_row({Table::fmt(r.number_or("t_ps", 0) / 1e6),
                     r.string_or("kind", "?"),
                     Table::fmt(static_cast<long long>(r.number_or("rank", -1))),
                     Table::fmt(static_cast<long long>(r.number_or("peer", -1))),
                     r.string_or("detail", "")});
  j_table.print();

  // Per-kind counts, the one-line health summary.
  std::map<std::string, long long> by_kind;
  for (const json::Value& r : records) ++by_kind[r.string_or("kind", "?")];
  std::string counts;
  for (const auto& [k, n] : by_kind) {
    if (!counts.empty()) counts += ", ";
    counts += k + "=" + Table::fmt(n);
  }
  std::printf("by kind: %s\n", counts.c_str());
  return 0;
}

int run_timeline(const Args& a) {
  if (!a.kv.count("timeseries")) {
    if (a.kv.count("journal")) return print_journal(a);
    std::fputs("timeline: --timeseries=FILE and/or --journal=FILE is "
               "required\n",
               stderr);
    return 2;
  }
  const std::string path = a.get("timeseries", "timeseries.json");
  const auto topk = static_cast<std::size_t>(a.get("top", 20));

  const json::ParseResult doc = json::parse_file(path);
  if (!doc.ok) {
    std::fprintf(stderr, "timeline: %s: %s (offset %zu)\n", path.c_str(),
                 doc.error.c_str(), doc.error_pos);
    return 1;
  }
  if (doc.value.string_or("schema", "") != "narma.timeseries.v1") {
    std::fprintf(stderr, "timeline: %s: unknown timeseries schema '%s'\n",
                 path.c_str(), doc.value.string_or("schema", "").c_str());
    return 1;
  }

  const json::Array& families = doc.value["families"].as_array();
  const json::Array& windows = doc.value["windows"].as_array();
  std::printf(
      "timeseries %s: %d ranks, window=%.1f us, %lld snapshots "
      "(%lld downsampling merges) -> %zu windows\n",
      path.c_str(), static_cast<int>(doc.value.number_or("nranks", 0)),
      doc.value.number_or("window_ps", 0) / 1e6,
      static_cast<long long>(doc.value.number_or("snapshots", 0)),
      static_cast<long long>(doc.value.number_or("merges", 0)),
      windows.size());

  auto family_name = [&](std::size_t idx) -> std::string {
    return idx < families.size() ? families[idx].string_or("name", "?")
                                 : "?";
  };

  // Per-window rank activity: mean busy fraction across ranks plus the
  // laggard (lowest busy fraction among active ranks). Only the last
  // --top windows are tabulated; the telescoped history stays in the JSON.
  const std::size_t first_shown =
      windows.size() > topk ? windows.size() - topk : 0;
  if (first_shown > 0)
    std::printf("(showing the last %zu of %zu windows; older ones are "
                "geometrically merged)\n",
                topk, windows.size());
  const bool aggregate =
      doc.value.string_or("obs_mode", "dense") == "aggregate";
  if (aggregate) {
    // Aggregate recorder windows carry whole-run rank sums (rank_agg) and
    // exact deltas only for the sampled ranks; the mean busy fraction is
    // the time-weighted one (busy_ps_sum / total_ps_sum).
    Table win_table({"window", "t_begin_us", "t_end_us", "merged", "cells",
                     "active", "mean_busy", "min_busy", "laggard",
                     "stragglers"});
    for (std::size_t i = first_shown; i < windows.size(); ++i) {
      const json::Value& win = windows[i];
      const json::Value& ag = win["rank_agg"];
      const double tot = ag.number_or("total_ps_sum", 0);
      win_table.add_row(
          {Table::fmt(static_cast<long long>(i)),
           Table::fmt(win.number_or("t_begin_ps", 0) / 1e6),
           Table::fmt(win.number_or("t_end_ps", 0) / 1e6),
           Table::fmt(static_cast<long long>(win.number_or("merged", 1))),
           Table::fmt(win["cells"].as_array().size()),
           Table::fmt(static_cast<long long>(ag.number_or("active", 0))),
           Table::fmt(tot > 0 ? ag.number_or("busy_ps_sum", 0) / tot : 0.0),
           Table::fmt(ag.number_or("min_busy", 0)),
           Table::fmt(static_cast<long long>(ag.number_or("min_rank", -1))),
           Table::fmt(static_cast<long long>(ag.number_or("stragglers", 0)))});
    }
    std::printf("\nper-window rank activity (aggregate):\n");
    win_table.print();
  } else {
    Table win_table({"window", "t_begin_us", "t_end_us", "merged", "cells",
                     "mean_busy", "min_busy", "laggard"});
    for (std::size_t i = first_shown; i < windows.size(); ++i) {
      const json::Value& win = windows[i];
      const json::Array& ranks = win["ranks"].as_array();
      double busy_sum = 0, busy_min = 2.0;
      long long laggard = -1;
      std::size_t active = 0;
      for (const json::Value& r : ranks) {
        const double tot = r.number_or("total_ps", 0);
        if (tot <= 0) continue;
        const double f = r.number_or("busy_ps", 0) / tot;
        busy_sum += f;
        ++active;
        if (f < busy_min) {
          busy_min = f;
          laggard = static_cast<long long>(r.number_or("rank", -1));
        }
      }
      win_table.add_row(
          {Table::fmt(static_cast<long long>(i)),
           Table::fmt(win.number_or("t_begin_ps", 0) / 1e6),
           Table::fmt(win.number_or("t_end_ps", 0) / 1e6),
           Table::fmt(static_cast<long long>(win.number_or("merged", 1))),
           Table::fmt(win["cells"].as_array().size()),
           Table::fmt(active ? busy_sum / static_cast<double>(active) : 0.0),
           Table::fmt(active ? busy_min : 0.0), Table::fmt(laggard)});
    }
    std::printf("\nper-window rank activity:\n");
    win_table.print();
  }

  // Busiest counter families by total delta across all windows and ranks.
  std::map<std::string, double> fam_totals;
  for (const json::Value& win : windows)
    for (const json::Value& c : win["cells"].as_array()) {
      const auto idx = static_cast<std::size_t>(c.number_or("family", 0));
      if (idx >= families.size()) continue;
      const std::string kind = families[idx].string_or("kind", "");
      if (kind == "counter")
        fam_totals[family_name(idx)] += c.number_or("delta", 0);
      else if (kind == "histogram")
        fam_totals[family_name(idx)] += c.number_or("delta_count", 0);
    }
  std::vector<std::pair<std::string, double>> ranked(fam_totals.begin(),
                                                     fam_totals.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    return x.second > y.second || (x.second == y.second && x.first < y.first);
  });
  Table fam_table({"family", "total over run"});
  for (std::size_t i = 0; i < std::min<std::size_t>(topk, ranked.size()); ++i)
    fam_table.add_row({ranked[i].first,
                       Table::fmt(static_cast<long long>(ranked[i].second))});
  std::printf("\nbusiest families (counters + histogram counts):\n");
  fam_table.print();

  // Model residuals: measured channel latency vs the LogGP prediction of
  // the backend that carried each sampled message, grouped per window.
  const json::Array& residuals = doc.value["residuals"].as_array();
  if (!residuals.empty()) {
    Table res_table({"window", "backend", "msgs", "model_ns", "residual_ns",
                     "max_|resid|_ns", "flag"});
    for (const json::Value& r : residuals)
      res_table.add_row(
          {Table::fmt(static_cast<long long>(r.number_or("window", 0))),
           r.string_or("backend", "?"),
           Table::fmt(static_cast<long long>(r.number_or("msgs", 0))),
           Table::fmt(r.number_or("mean_model_ps", 0) / 1e3),
           Table::fmt(r.number_or("mean_residual_ps", 0) / 1e3),
           Table::fmt(r.number_or("max_abs_residual_ps", 0) / 1e3),
           r["flagged"].as_bool() ? "FLAGGED" : ""});
    std::printf("\nmodel residuals (measured - LogGP per backend):\n");
    res_table.print();
  }

  // Flagged anomalies (stragglers, flagged residual groups).
  const json::Array& anomalies = doc.value["anomalies"].as_array();
  if (!anomalies.empty()) {
    Table an_table({"window", "kind", "rank", "detail"});
    for (const json::Value& an : anomalies)
      an_table.add_row(
          {Table::fmt(static_cast<long long>(an.number_or("window", 0))),
           an.string_or("kind", "?"),
           Table::fmt(static_cast<long long>(an.number_or("rank", -1))),
           an.string_or("detail", "")});
    std::printf("\nanomalies (%zu):\n", anomalies.size());
    an_table.print();
  } else {
    std::printf("\nanomalies: none\n");
  }

  // Perfetto counter tracks: one counter event per (family, rank) at each
  // window end, same event shape as the live Tracer's gauge tracks, plus a
  // busy-fraction track per rank.
  if (a.kv.count("perfetto")) {
    const std::string out_path = a.get("perfetto", "timeline_perfetto.json");
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string& fields) {
      if (!first) out += ',';
      first = false;
      out += '{';
      out += fields;
      out += '}';
    };
    char buf[256];
    for (const json::Value& win : windows) {
      const double ts_us = win.number_or("t_end_ps", 0) / 1e6;
      // Aggregate windows have no dense rank array; the sampled ranks'
      // exact deltas become the busy-fraction tracks instead.
      for (const json::Value& r :
           win[aggregate ? "sampled_ranks" : "ranks"].as_array()) {
        const double tot = r.number_or("total_ps", 0);
        const auto rank = static_cast<long long>(r.number_or("rank", 0));
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"C\",\"pid\":0,\"tid\":%lld,\"name\":"
                      "\"ts.busy_frac\",\"ts\":%.3f,\"args\":{\"value\":%.17g}",
                      rank, ts_us,
                      tot > 0 ? r.number_or("busy_ps", 0) / tot : 0.0);
        emit(buf);
      }
      for (const json::Value& c : win["cells"].as_array()) {
        const auto idx = static_cast<std::size_t>(c.number_or("family", 0));
        const std::string kind =
            idx < families.size() ? families[idx].string_or("kind", "") : "";
        const double v = kind == "counter"     ? c.number_or("delta", 0)
                         : kind == "gauge"     ? c.number_or("value", 0)
                         : c.number_or("delta_count", 0);
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"C\",\"pid\":0,\"tid\":%lld,\"name\":"
                      "\"ts.%s\",\"ts\":%.3f,\"args\":{\"value\":%.17g}",
                      static_cast<long long>(c.number_or("rank", 0)),
                      family_name(idx).c_str(), ts_us, v);
        emit(buf);
      }
    }
    out += "]}";
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "timeline: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("\nwrote Perfetto counter tracks to %s\n", out_path.c_str());
  }
  if (a.kv.count("journal")) return print_journal(a);
  return 0;
}

int run_pingpong(const Args& a) {
  const int ranks = static_cast<int>(a.get("ranks", 2));
  const std::size_t bytes = static_cast<std::size_t>(a.get("bytes", 8));
  const int reps = static_cast<int>(a.get("reps", 100));
  const std::string scheme = a.get("scheme", "na");
  NARMA_CHECK(ranks == 2) << "pingpong needs exactly 2 ranks";

  WorldParams wp;
  if (a.kv.count("intranode")) wp.fabric.ranks_per_node = ranks;
  apply_transport(wp, a);
  apply_obs_params(wp, a);
  World world(2, wp);
  enable_observability(world, a);

  std::vector<double> samples;
  world.run([&](Rank& self) {
    const int partner = 1 - self.id();
    auto win = self.win_allocate(2 * bytes + 16, 1);
    std::vector<std::byte> buf(bytes, std::byte{1});
    auto req = self.na().notify_init(*win, na::MatchSpec{partner, 9}, 1);
    for (int r = 0; r < reps + 2; ++r) {
      self.barrier();
      const Time t0 = self.now();
      auto ping_pong_na = [&](bool first) {
        if (first) {
          self.na().put_notify(*win, na::as_bytes(buf.data(), bytes), partner, 0, 9);
          win->flush(partner);
          self.na().start(req);
          self.na().wait(req);
        } else {
          self.na().start(req);
          self.na().wait(req);
          self.na().put_notify(*win, na::as_bytes(buf.data(), bytes), partner, bytes, 9);
          win->flush(partner);
        }
      };
      auto ping_pong_mp = [&](bool first) {
        if (first) {
          self.send(buf.data(), bytes, partner, 9);
          self.recv(buf.data(), bytes, partner, 9);
        } else {
          self.recv(buf.data(), bytes, partner, 9);
          self.send(buf.data(), bytes, partner, 9);
        }
      };
      auto ping_pong_os = [&](bool first) {
        std::array<int, 1> grp{partner};
        if (first) {
          win->start(grp);
          win->put(buf.data(), bytes, partner, 0);
          win->complete();
          win->post(grp);
          win->wait();
        } else {
          win->post(grp);
          win->wait();
          win->start(grp);
          win->put(buf.data(), bytes, partner, bytes);
          win->complete();
        }
      };
      const bool first = self.id() == 0;
      if (scheme == "mp") {
        ping_pong_mp(first);
      } else if (scheme == "os") {
        ping_pong_os(first);
      } else {
        ping_pong_na(first);
      }
      if (self.id() == 0 && r >= 2)
        samples.push_back(to_us(self.now() - t0) / 2.0);
    }
    self.barrier();
  });
  std::printf("pingpong scheme=%s bytes=%zu reps=%d half_rtt_us=%.3f\n",
              scheme.c_str(), bytes, reps, stats::median(samples));
  dump_artifacts(world, a);
  return 0;
}

int run_stencil(const Args& a) {
  const int ranks = static_cast<int>(a.get("ranks", 4));
  apps::StencilConfig cfg;
  cfg.rows = static_cast<int>(a.get("rows", 256));
  cfg.total_cols = static_cast<int>(a.get("cols", 1024));
  cfg.iters = static_cast<int>(a.get("iters", 2));
  // Calibrated per-point compute cost in ps (0 = measure the real kernel;
  // measured runs are host-dependent, calibrated runs are bit-deterministic).
  cfg.per_point = static_cast<Time>(a.get("per-point", 0));
  const std::string v = a.get("variant", "na");
  cfg.variant = v == "mp"      ? apps::StencilVariant::kMessagePassing
                : v == "fence" ? apps::StencilVariant::kFence
                : v == "pscw"  ? apps::StencilVariant::kPscw
                               : apps::StencilVariant::kNotified;
  WorldParams wp;
  apply_transport(wp, a);
  apply_obs_params(wp, a);
  const bool ft_on = apply_ft(wp, cfg.ft, a);
  World world(ranks, wp);
  enable_observability(world, a);
  apps::StencilResult res;
  ft::FtStats victim;
  world.run([&](Rank& self) {
    const auto r = apps::run_stencil(self, cfg);
    if (self.id() == 0) res = r;
    if (r.ft.fails > 0) victim = r.ft;
  });
  std::printf(
      "stencil variant=%s ranks=%d rows=%d cols=%d gmops=%.4f verified=%s\n",
      v.c_str(), ranks, cfg.rows, cfg.total_cols, res.gmops,
      res.verified ? "yes" : "NO");
  if (ft_on) print_ft_summary("stencil", victim, res.ft);
  dump_artifacts(world, a);
  return res.verified ? 0 : 1;
}

int run_tree(const Args& a) {
  const int ranks = static_cast<int>(a.get("ranks", 17));
  apps::TreeConfig cfg;
  cfg.arity = static_cast<int>(a.get("arity", 16));
  cfg.elems = static_cast<std::size_t>(a.get("elems", 1));
  cfg.reps = static_cast<int>(a.get("reps", 5));
  const std::string v = a.get("variant", "na");
  cfg.variant = v == "mp"       ? apps::TreeVariant::kMessagePassing
                : v == "pscw"   ? apps::TreeVariant::kPscw
                : v == "vendor" ? apps::TreeVariant::kVendorReduce
                                : apps::TreeVariant::kNotified;
  WorldParams wp;
  apply_transport(wp, a);
  apply_obs_params(wp, a);
  const bool ft_on = apply_ft(wp, cfg.ft, a);
  World world(ranks, wp);
  enable_observability(world, a);
  apps::TreeResult res;
  ft::FtStats victim;
  world.run([&](Rank& self) {
    const auto r = apps::run_tree(self, cfg);
    if (self.id() == 0) res = r;
    if (r.ft.fails > 0) victim = r.ft;
  });
  std::printf(
      "tree variant=%s ranks=%d arity=%d elems=%zu us_per_op=%.2f "
      "verified=%s\n",
      v.c_str(), ranks, cfg.arity, cfg.elems, res.per_op_us,
      res.verified ? "yes" : "NO");
  if (ft_on) print_ft_summary("tree", victim, res.ft);
  dump_artifacts(world, a);
  return res.verified ? 0 : 1;
}

int run_cholesky(const Args& a) {
  const int ranks = static_cast<int>(a.get("ranks", 4));
  apps::CholeskyConfig cfg;
  cfg.nt = static_cast<int>(a.get("nt", 12));
  cfg.b = static_cast<int>(a.get("b", 32));
  cfg.model_gflops = static_cast<double>(a.get("gflops", 10));
  const std::string v = a.get("variant", "na");
  cfg.variant = v == "mp"   ? apps::CholeskyVariant::kMessagePassing
                : v == "os" ? apps::CholeskyVariant::kOneSided
                            : apps::CholeskyVariant::kNotified;
  WorldParams wp;
  apply_transport(wp, a);
  apply_obs_params(wp, a);
  World world(ranks, wp);
  enable_observability(world, a);
  apps::CholeskyResult res;
  world.run([&](Rank& self) {
    const auto r = apps::run_cholesky(self, cfg);
    if (self.id() == 0) res = r;
  });
  std::printf(
      "cholesky variant=%s ranks=%d nt=%d b=%d time_ms=%.3f gflops=%.3f "
      "residual=%.2e verified=%s\n",
      v.c_str(), ranks, cfg.nt, cfg.b, to_ms(res.elapsed), res.gflops,
      res.residual, res.verified ? "yes" : "NO");
  dump_artifacts(world, a);
  return res.verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.command == "pingpong") return run_pingpong(a);
  if (a.command == "stencil") return run_stencil(a);
  if (a.command == "tree") return run_tree(a);
  if (a.command == "cholesky") return run_cholesky(a);
  if (a.command == "report") return run_report(a);
  if (a.command == "timeline") return run_timeline(a);
  if (a.command == "critpath") return run_critpath(a);
  if (a.command == "diff") return run_diff(a);
  return usage();
}
