// narma_cli — experiment driver.
//
// Runs the paper's workloads with command-line parameters, without editing
// benchmark sources:
//
//   narma_cli pingpong --scheme=na --ranks=2 --bytes=8 --reps=100
//   narma_cli stencil  --variant=na --ranks=16 --rows=512 --cols=2048
//   narma_cli tree     --variant=na --ranks=64 --arity=16 --elems=8
//   narma_cli cholesky --variant=mp --ranks=8 --nt=24 --b=32 --out=run --trace
//
// Every run prints one result line, suitable for scripting sweeps, and with
// --out=DIR writes its run directory: one fixed-name JSON file per recorder
// (World::write_artifacts). `report`, `critpath`, `timeline` and `diff`
// read a run directory back: per-category virtual-time breakdowns, critical
// paths, flight-recorder windows, and run-to-run deltas.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/stencil.hpp"
#include "apps/tree.hpp"
#include "common/file.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "narma/narma.hpp"

namespace {

using namespace narma;

/// Rejects a malformed flag value: one diagnostic line naming the flag,
/// then exit 2 (the usage-error status).
[[noreturn]] void bad_flag(const std::string& key, const std::string& value,
                           const std::string& expected) {
  std::fprintf(stderr, "narma_cli: --%s=%s: expected %s\n", key.c_str(),
               value.c_str(), expected.c_str());
  std::exit(2);
}

/// Rejects a flag that is misplaced rather than malformed: one diagnostic
/// line, then exit 2.
[[noreturn]] void bad_usage(const std::string& what) {
  std::fprintf(stderr, "narma_cli: %s\n", what.c_str());
  std::exit(2);
}

/// The artifact flags that took a FILE before runs wrote a directory.
constexpr std::string_view kRemovedFileFlags =
    " trace metrics msgtrace timeseries journal ";

struct Args {
  std::string command;
  std::map<std::string, std::string> kv;  // bare switches map to "1"
  std::set<std::string> bare;             // keys given without "=value"
  std::vector<std::string> positional;

  bool has(const std::string& key) const { return kv.count(key) > 0; }

  /// Exits 2 on any flag the command does not accept. Each spec is a
  /// space-separated list of flag names; a name ending in '=' takes a
  /// value, any other is a bare switch.
  void check_flags(std::initializer_list<std::string_view> specs) const {
    std::string accepted = " ";
    for (std::string_view spec : specs) (accepted += spec) += ' ';
    auto listed = [](std::string_view list, const std::string& name) {
      return list.find(" " + name + " ") != std::string_view::npos;
    };
    for (const auto& [key, value] : kv) {
      const bool valued = !bare.count(key);
      if (valued && listed(kRemovedFileFlags, key))
        bad_usage("--" + key + "=FILE was removed: runs write " + key +
                  ".json under --out=DIR, and readers take DIR");
      const bool is_switch = listed(accepted, key);
      const bool takes_value = listed(accepted, key + "=");
      if (!is_switch && !takes_value)
        bad_usage("--" + key + ": unknown flag for " + command);
      if (is_switch && valued)
        bad_usage("--" + key + "=" + value + ": takes no value");
      if (takes_value && !valued)
        bad_usage("--" + key + ": expected --" + key + "=VALUE");
    }
  }

  /// Exits 2 when `key` is given without `needed`.
  void require(const std::string& key, const std::string& needed) const {
    if (has(key) && !has(needed))
      bad_usage("--" + key + " needs --" + needed);
  }

  long get(const std::string& key, long fallback) const {
    return number(key, fallback);
  }
  double get_double(const std::string& key, double fallback) const {
    return number(key, fallback);
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }

  /// An integer flag that must be at least `min` (counts, sizes,
  /// capacities), so a negative value never wraps through an unsigned cast.
  long at_least(const std::string& key, long fallback, long min) const {
    const long v = get(key, fallback);
    if (v < min)
      bad_flag(key, get(key, ""),
               min == 0   ? std::string("a non-negative integer")
               : min == 1 ? std::string("a positive integer")
                          : "an integer >= " + std::to_string(min));
    return v;
  }

  /// A probability flag: a number in [0, 1].
  double rate(const std::string& key, double fallback) const {
    const double v = get_double(key, fallback);
    if (v < 0 || v > 1) bad_flag(key, get(key, ""), "a number in [0, 1]");
    return v;
  }

  /// Maps the value of --key through `choices`; an unknown value is
  /// rejected with the accepted ones listed.
  template <class E>
  E pick(const std::string& key, const std::string& fallback,
         std::initializer_list<std::pair<const char*, E>> choices) const {
    const std::string v = get(key, fallback);
    std::string accepted;
    for (const auto& [name, value] : choices) {
      if (v == name) return value;
      if (!accepted.empty()) accepted += '|';
      accepted += name;
    }
    bad_flag(key, v, "one of " + accepted);
  }

 private:
  /// Parses the whole value as a T (finite, for doubles) or rejects it.
  template <class T>
  T number(const std::string& key, T fallback) const {
    auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    const std::string& s = it->second;
    T v{};
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    bool ok = ec == std::errc() && end == s.data() + s.size();
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
    if (!ok) bad_flag(key, s, std::is_integral_v<T> ? "an integer" : "a number");
    return v;
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
      a.bare.insert(s.substr(2));
    } else {
      a.bare.erase(s.substr(2, eq - 2));
      a.kv[s.substr(2, eq - 2)] = s.substr(eq + 1);
    }
  }
  return a;
}

int usage() {
  std::fputs(
      "usage: narma_cli <command> [--key=value ...]\n"
      "\n"
      "run commands (each prints one result line):\n"
      "  pingpong  --scheme=na|mp|os --ranks=N --bytes=B --reps=R\n"
      "            [--intranode]\n"
      "  stencil   --variant=na|mp|fence|pscw --ranks=N --rows=R --cols=C\n"
      "            --iters=I [--per-point=PS] [--ft ...]\n"
      "            PS: charged compute per point update in ps (default 2000)\n"
      "  tree      --variant=na|mp|pscw|vendor --ranks=N --arity=K\n"
      "            --elems=E --reps=R [--ft ...]\n"
      "  cholesky  --variant=na|mp|os --ranks=N --nt=T --b=B [--gflops=G]\n"
      "            G: modeled kernel rate in GFlop/s, > 0 (default 10)\n"
      "\n"
      "run directory (all run commands; DESIGN.md section 7):\n"
      "            [--out=DIR]        write DIR (created if missing):\n"
      "                               metrics.json and journal.json, plus\n"
      "                               one file per recorder switched on below\n"
      "            [--trace]          Chrome trace of the run -> trace.json\n"
      "            [--msgtrace]       causal message trace -> msgtrace.json\n"
      "            [--msgtrace-sample=N]  trace every Nth message (default 1)\n"
      "            [--timeseries]     flight recorder -> timeseries.json\n"
      "            [--timeseries-window-us=N]  snapshot cadence (default 100)\n"
      "            [--profile]        host-time phase profiling; results land\n"
      "                               in metrics.json as obs.phase_*\n"
      "            [--journal-cap=N]  anomaly-journal ring capacity\n"
      "                               (default 4096; 0 disables)\n"
      "            [--transport=aries|ramc|verbs]  inter-node backend\n"
      "                               (default aries)\n"
      "\n"
      "readers (DIR is a run directory written with --out=DIR):\n"
      "  report    DIR [--top=N]\n"
      "            summarize a recorded run: per-category virtual time\n"
      "            (with p50/p95 span durations), longest spans, per-rank\n"
      "            busy fractions, host-time phase attribution\n"
      "            (--profile runs), per-backend notification + drain-cost\n"
      "            rows, histogram percentiles\n"
      "  timeline  DIR [--perfetto=FILE] [--top=N]\n"
      "            analyze the flight recorder and the anomaly journal:\n"
      "            per-window rank activity, busiest counter families,\n"
      "            model-residual rows, flagged anomalies; --perfetto writes\n"
      "            counter tracks for Perfetto\n"
      "  critpath  DIR [--top=N]\n"
      "            analyze a causal message trace: critical-path category\n"
      "            breakdown, per-rank share, slowest messages, per-\n"
      "            category latency statistics\n"
      "  diff      DIR DIR [--top=N]\n"
      "            compare two runs' metrics: per-family reduced values,\n"
      "            absolute + relative deltas, top regressions, families\n"
      "            added/removed\n"
      "\n"
      "fault model (DESIGN.md sections 10-11; rates in [0, 1]):\n"
      "            [--overflow=fatal|backpressure]  queue-overflow policy\n"
      "                               (default fatal)\n"
      "            [--fault-seed=S]   fault-plan seed (default 1)\n"
      "            [--fault-drop=R]   per-transfer drop + retransmit rate\n"
      "            [--fault-delay=R]  per-transfer delivery-jitter rate\n"
      "            [--fault-stall=R]  per-transfer source NIC stall rate\n"
      "            [--fault-pressure=R]  forced queue-full rate\n"
      "                               (backpressure policy only)\n"
      "\n"
      "fault tolerance (stencil + tree, NotifiedAccess variant only):\n"
      "            [--ft]                   run through the recovery manager\n"
      "            [--ft-fail-rate=R]       per-(rank,epoch) fail-stop rate\n"
      "            [--ft-max-fails=N]       fail-stop budget (default 1)\n"
      "            [--ft-interval=E]        checkpoint every E epochs\n"
      "            [--ft-partner-offset=K]  checkpoint partner (rank+K)%n\n"
      "            [--ft-restart-us=T]      victim downtime before rejoin\n"
      "            [--ft-min-fail-epoch=E]  earliest epoch the plan fires\n"
      "            [--ft-no-trim]           keep logs across checkpoints\n"
      "            [--ft-no-recover]        victims stay down (crash mode)\n",
      stderr);
  return 2;
}

/// The flags every run command accepts: the run directory and its
/// recorder switches, the inter-node transport and the fault model.
constexpr std::string_view kWorldFlags =
    "out= trace msgtrace msgtrace-sample= timeseries timeseries-window-us= "
    "profile journal-cap= transport= overflow= fault-seed= fault-drop= "
    "fault-delay= fault-stall= fault-pressure=";
/// The --ft* flags of the apps with a recovery path (stencil, tree).
constexpr std::string_view kFtFlags =
    "ft ft-fail-rate= ft-max-fails= ft-interval= ft-partner-offset= "
    "ft-restart-us= ft-min-fail-epoch= ft-no-trim ft-no-recover";

/// Reports an artifact that could not be written and exits 1.
[[noreturn]] void cannot_write(const std::string& err) {
  std::fprintf(stderr, "narma_cli: cannot write %s\n", err.c_str());
  std::exit(1);
}

/// Builds a run's WorldParams from the world-level flags: the recorder
/// switches, inter-node transport, fault model and anomaly-journal
/// capacity. These flags are the CLI's only way to configure a World
/// (nothing is read from the environment); only --profile is applied to the
/// built World instead (World::enable_profiling). Creates the --out
/// directory up front, so an unwritable one fails before the run rather
/// than after it.
WorldParams world_params(const Args& a) {
  if (!a.positional.empty())
    bad_usage(a.positional[0] + ": unexpected argument for " + a.command);
  for (const char* sw : {"trace", "msgtrace", "timeseries", "profile"})
    a.require(sw, "out");
  a.require("msgtrace-sample", "msgtrace");
  a.require("timeseries-window-us", "timeseries");
  WorldParams wp;
  obs::ObsParams& o = wp.obs;
  o.trace = a.has("trace");
  o.msgtrace = a.has("msgtrace");
  o.msgtrace_sample_every = static_cast<std::uint64_t>(a.at_least(
      "msgtrace-sample", static_cast<long>(o.msgtrace_sample_every), 1));
  o.timeseries = a.has("timeseries");
  if (a.has("timeseries-window-us"))
    o.timeseries_window_ps =
        us(static_cast<Time>(a.at_least("timeseries-window-us", 0, 1)));
  o.journal_capacity = static_cast<std::size_t>(a.at_least(
      "journal-cap", static_cast<long>(o.journal_capacity), 0));
  if (a.has("transport"))
    wp.fabric.inter_node =
        a.pick<net::BackendKind>("transport", "",
                                 {{"aries", net::BackendKind::kAries},
                                  {"ramc", net::BackendKind::kRamc},
                                  {"verbs", net::BackendKind::kVerbs}});
  net::FaultParams& f = wp.fabric.faults;
  if (a.has("overflow"))
    f.overflow_policy = a.pick<net::OverflowPolicy>(
        "overflow", "",
        {{"fatal", net::OverflowPolicy::kFatal},
         {"backpressure", net::OverflowPolicy::kBackpressure}});
  f.seed = static_cast<std::uint64_t>(
      a.at_least("fault-seed", static_cast<long>(f.seed), 0));
  f.drop_rate = a.rate("fault-drop", f.drop_rate);
  f.delay_rate = a.rate("fault-delay", f.delay_rate);
  f.stall_rate = a.rate("fault-stall", f.stall_rate);
  f.pressure_rate = a.rate("fault-pressure", f.pressure_rate);
  if (a.has("out")) {
    const std::string out = a.get("out", "");
    if (out.empty()) bad_flag("out", out, "a directory path");
    if (const std::string err = file::make_dirs(out); !err.empty())
      cannot_write(err);
  }
  return wp;
}

/// Writes the run directory when --out is given. Returns `status`; a file
/// that cannot be written exits 1.
int write_out(const World& world, const Args& a, int status) {
  if (a.has("out"))
    if (const std::string err = world.write_artifacts(a.get("out", ""));
        !err.empty())
      cannot_write(err);
  return status;
}

/// Applies the --ft* flags onto an app's recovery params and the fail plan
/// onto the world's fault params. Returns whether fault tolerance is
/// enabled.
bool apply_ft(WorldParams& wp, ft::FtParams& p, const Args& a) {
  if (a.has("ft")) p.enabled = true;
  p.ckpt_interval =
      static_cast<int>(a.at_least("ft-interval", p.ckpt_interval, 1));
  p.partner_offset =
      static_cast<int>(a.get("ft-partner-offset", p.partner_offset));
  if (a.has("ft-restart-us")) {
    const double t = a.get_double("ft-restart-us", 0);
    if (t < 0) bad_flag("ft-restart-us", a.get("ft-restart-us", ""),
                        "a non-negative number");
    p.restart = us(t);
  }
  p.min_fail_epoch = static_cast<std::uint64_t>(a.at_least(
      "ft-min-fail-epoch", static_cast<long>(p.min_fail_epoch), 0));
  if (a.has("ft-no-trim")) p.eager_trim = false;
  if (a.has("ft-no-recover")) p.recover = false;
  net::FaultParams& f = wp.fabric.faults;
  f.fail_rate = a.rate("ft-fail-rate", f.fail_rate);
  f.max_fails = static_cast<int>(a.at_least("ft-max-fails", f.max_fails, 0));
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

// --- run-directory readers ---------------------------------------------------

/// One artifact of a run directory, parsed and schema-checked.
struct Artifact {
  std::string path;
  json::Value doc;
};

/// Loads DIR/`name`: nullopt when the file is absent; exit 1 with a
/// diagnostic naming the file when it does not parse or carries another
/// schema. `schema` is the expected "schema" field; the Chrome trace has
/// none and must hold a traceEvents array instead.
std::optional<Artifact> load(const Args& a, const std::string& dir,
                             const char* name, const char* schema) {
  const std::string path = dir + "/" + name;
  if (!std::filesystem::exists(path)) return std::nullopt;
  json::ParseResult res = json::parse_file(path);
  if (!res.ok) {
    std::fprintf(stderr, "%s: %s: %s (offset %zu)\n", a.command.c_str(),
                 path.c_str(), res.error.c_str(), res.error_pos);
    std::exit(1);
  }
  const std::string found = res.value.string_or("schema", "");
  if (schema ? found != schema : !res.value["traceEvents"].is_array()) {
    std::fprintf(stderr, "%s: %s: unknown schema '%s', expected %s\n",
                 a.command.c_str(), path.c_str(), found.c_str(),
                 schema ? schema : "a Chrome trace (traceEvents)");
    std::exit(1);
  }
  return Artifact{path, std::move(res.value)};
}

/// load() for an artifact the command cannot do without: absent exits 1.
Artifact need(const Args& a, const std::string& dir, const char* name,
              const char* schema) {
  std::optional<Artifact> art = load(a, dir, name, schema);
  if (!art) {
    std::fprintf(stderr, "%s: %s/%s: no such file\n", a.command.c_str(),
                 dir.c_str(), name);
    std::exit(1);
  }
  return std::move(*art);
}

/// The run directories a reader takes as positional arguments; exits 2
/// unless exactly `n` are given.
const std::vector<std::string>& run_dirs(const Args& a, std::size_t n) {
  if (a.positional.size() != n)
    bad_usage(a.command + ": expected " +
              (n == 1 ? "one run directory" : "two run directories") +
              " (narma_cli " + a.command + (n == 1 ? " DIR" : " DIR DIR") +
              ")");
  return a.positional;
}

// --- report ------------------------------------------------------------------

/// Metrics-dump sections of `report`: per-rank busy fractions, host-time
/// phase attribution (from --profile runs), per-backend notification and
/// drain-cost rows, and interpolated histogram percentiles.
int report_metrics(const Artifact& m) {
  const std::string& metrics_path = m.path;
  const int nranks = static_cast<int>(m.doc.number_or("nranks", 0));
  const json::Array& fams = m.doc["metrics"].as_array();
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

  // Per-rank busy fractions from the sim.* gauges, which World::run sets
  // after the run: a crash directory ($NARMA_CRASH_DIR) has none.
  const json::Value& busy = per_rank_of("sim.busy_ns");
  const json::Value& blocked = per_rank_of("sim.blocked_ns");
  const json::Value& total = per_rank_of("sim.total_ns");
  if (!busy.is_array() || !total.is_array()) {
    std::printf("\n%s has no sim.busy_ns/sim.total_ns gauges: the run did "
                "not finish\n",
                metrics_path.c_str());
  } else {
    Table busy_table(
        {"rank", "busy_ms", "blocked_ms", "total_ms", "busy_frac"});
    for (int r = 0; r < nranks; ++r) {
      const double b = busy[static_cast<std::size_t>(r)].number_or("value", 0);
      const double w =
          blocked[static_cast<std::size_t>(r)].number_or("value", 0);
      const double t =
          total[static_cast<std::size_t>(r)].number_or("value", 0);
      busy_table.add_row({Table::fmt(static_cast<long long>(r)),
                          Table::fmt(b / 1e6), Table::fmt(w / 1e6),
                          Table::fmt(t / 1e6),
                          Table::fmt(t > 0 ? b / t : 0.0)});
    }
    std::printf("\nper-rank busy fraction (from %s):\n",
                metrics_path.c_str());
    busy_table.print();
  }

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

  // Obs self-cost gauges: the registry footprint and the journal depth,
  // both carried by rank 0.
  {
    auto hw0 = [&](const std::string& name) -> double {
      const json::Value& pr = per_rank_of(name);
      return pr.is_array() && !pr.as_array().empty()
                 ? pr.as_array()[0].number_or("high_water", 0)
                 : 0.0;
    };
    const double registry_bytes = hw0("obs.registry_bytes");
    const double journal_depth = hw0("obs.journal_depth");
    if (registry_bytes > 0 || journal_depth > 0)
      std::printf("\nobs self-cost: registry ~%.1f KiB, journal depth %lld\n",
                  registry_bytes / 1024.0,
                  static_cast<long long>(journal_depth));
  }
  return 0;
}

/// The trace sections of `report`: per-category virtual time, longest
/// spans.
int report_trace(const Artifact& trace, std::size_t topk) {
  const std::string& trace_path = trace.path;
  const json::Array& events = trace.doc["traceEvents"].as_array();
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
  return 0;
}

int run_report(const Args& a) {
  a.check_flags({"top="});
  const std::string& dir = run_dirs(a, 1)[0];
  const auto topk = static_cast<std::size_t>(a.at_least("top", 10, 0));
  const std::optional<Artifact> trace = load(a, dir, obs::kTraceFile, nullptr);
  const std::optional<Artifact> metrics =
      load(a, dir, obs::kMetricsFile, "narma.metrics.v1");
  if (!trace && !metrics) {
    std::fprintf(stderr, "report: %s holds neither %s nor %s\n", dir.c_str(),
                 obs::kTraceFile, obs::kMetricsFile);
    return 1;
  }
  if (trace)
    if (const int rc = report_trace(*trace, topk); rc != 0) return rc;
  return metrics ? report_metrics(*metrics) : 0;
}

// --- diff --------------------------------------------------------------------

/// One family of a metrics dump reduced to a single comparable number:
/// counters to the whole-family sum, gauges to the global high-water,
/// histograms to the total sample count.
struct ReducedFamily {
  std::string kind;
  double value = 0;
};

std::map<std::string, ReducedFamily> reduce_metrics(const json::Value& doc) {
  std::map<std::string, ReducedFamily> out;
  for (const json::Value& fam : doc["metrics"].as_array()) {
    const std::string name = fam.string_or("name", "?");
    ReducedFamily red;
    red.kind = fam.string_or("kind", "?");
    for (const json::Value& cell : fam["per_rank"].as_array()) {
      if (red.kind == "counter")
        red.value += cell.number_or("value", 0);
      else if (red.kind == "gauge")
        red.value = std::max(red.value, cell.number_or("high_water", 0));
      else
        red.value += cell.number_or("count", 0);
    }
    out[name] = std::move(red);
  }
  return out;
}

int run_diff(const Args& a) {
  a.check_flags({"top="});
  const std::vector<std::string>& dirs = run_dirs(a, 2);
  const auto topk = static_cast<std::size_t>(a.at_least("top", 15, 0));
  const std::map<std::string, ReducedFamily> base = reduce_metrics(
      need(a, dirs[0], obs::kMetricsFile, "narma.metrics.v1").doc);
  const std::map<std::string, ReducedFamily> cur = reduce_metrics(
      need(a, dirs[1], obs::kMetricsFile, "narma.metrics.v1").doc);

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
      dirs[0].c_str(), dirs[1].c_str(),
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
  a.check_flags({"top="});
  const std::string& dir = run_dirs(a, 1)[0];
  const auto topk = static_cast<std::size_t>(a.at_least("top", 10, 0));
  const Artifact mt = need(a, dir, obs::kMsgtraceFile, "narma.msgtrace.v1");
  const std::string& path = mt.path;
  const json::Value& doc = mt.doc;

  const json::Array& messages = doc["messages"].as_array();
  std::printf(
      "msgtrace %s: %d ranks, sample_every=%lld, %lld injected / %lld "
      "sampled / %lld hop records dropped, %zu messages\n",
      path.c_str(), static_cast<int>(doc.number_or("nranks", 0)),
      static_cast<long long>(doc.number_or("sample_every", 1)),
      static_cast<long long>(doc.number_or("injections", 0)),
      static_cast<long long>(doc.number_or("sampled", 0)),
      static_cast<long long>(doc.number_or("dropped", 0)),
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
  const json::Value& cp = doc["critical_path"];
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
void print_journal(const Artifact& journal) {
  const std::string& path = journal.path;
  const json::Value& doc = journal.doc;
  const json::Array& records = doc["records"].as_array();
  std::printf(
      "\njournal %s: %lld appended, %lld dropped (capacity %lld), "
      "%zu retained\n",
      path.c_str(), static_cast<long long>(doc.number_or("appended", 0)),
      static_cast<long long>(doc.number_or("dropped", 0)),
      static_cast<long long>(doc.number_or("capacity", 0)),
      records.size());
  if (records.empty()) {
    std::printf("journal: clean run (no anomalies recorded)\n");
    return;
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
}

/// Flight-recorder sections of `timeline`; with a `perfetto_path`, also
/// writes the windows as Perfetto counter tracks.
void print_timeseries(const Artifact& ts, std::size_t topk,
                      const std::string& perfetto_path) {
  const std::string& path = ts.path;
  const json::Value& doc = ts.doc;
  const json::Array& families = doc["families"].as_array();
  const json::Array& windows = doc["windows"].as_array();
  std::printf(
      "timeseries %s: %d ranks, window=%.1f us, %lld snapshots "
      "(%lld downsampling merges) -> %zu windows\n",
      path.c_str(), static_cast<int>(doc.number_or("nranks", 0)),
      doc.number_or("window_ps", 0) / 1e6,
      static_cast<long long>(doc.number_or("snapshots", 0)),
      static_cast<long long>(doc.number_or("merges", 0)),
      windows.size());

  auto family_name = [&](std::size_t idx) -> std::string {
    return idx < families.size() ? families[idx].string_or("name", "?")
                                 : "?";
  };

  // Per-window rank activity from rank_agg, which covers every rank: the
  // time-weighted mean busy fraction (busy_ps_sum / total_ps_sum) and the
  // laggard (lowest busy fraction among active ranks). Only the last --top
  // windows are tabulated; the telescoped history stays in the JSON.
  const std::size_t first_shown =
      windows.size() > topk ? windows.size() - topk : 0;
  if (first_shown > 0)
    std::printf("(showing the last %zu of %zu windows; older ones are "
                "geometrically merged)\n",
                topk, windows.size());
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
  std::printf("\nper-window rank activity:\n");
  win_table.print();

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
  const json::Array& residuals = doc["residuals"].as_array();
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
  const json::Array& anomalies = doc["anomalies"].as_array();
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
  // busy-fraction track per recorded rank.
  if (!perfetto_path.empty()) {
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
      for (const json::Value& r : win["ranks"].as_array()) {
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
    if (const std::string err = file::write(perfetto_path, out); !err.empty())
      cannot_write(err);
    std::printf("\nwrote Perfetto counter tracks to %s\n",
                perfetto_path.c_str());
  }
}

int run_timeline(const Args& a) {
  a.check_flags({"top= perfetto="});
  const std::string& dir = run_dirs(a, 1)[0];
  const auto topk = static_cast<std::size_t>(a.at_least("top", 20, 0));
  const std::optional<Artifact> ts =
      load(a, dir, obs::kTimeseriesFile, "narma.timeseries.v1");
  const std::optional<Artifact> journal =
      load(a, dir, obs::kJournalFile, "narma.journal.v1");
  if (!ts && !journal) {
    std::fprintf(stderr, "timeline: %s holds neither %s nor %s\n",
                 dir.c_str(), obs::kTimeseriesFile, obs::kJournalFile);
    return 1;
  }
  const std::string perfetto = a.get("perfetto", "");
  if (a.has("perfetto") && perfetto.empty())
    bad_flag("perfetto", perfetto, "a file path");
  if (a.has("perfetto") && !ts)
    bad_usage("timeline: --perfetto needs " + dir + "/" +
              obs::kTimeseriesFile);
  if (ts) print_timeseries(*ts, topk, perfetto);
  if (journal) print_journal(*journal);
  return 0;
}
int run_pingpong(const Args& a) {
  a.check_flags({kWorldFlags, "ranks= bytes= reps= scheme= intranode"});
  const int ranks = static_cast<int>(a.at_least("ranks", 2, 1));
  const std::size_t bytes = static_cast<std::size_t>(a.at_least("bytes", 8, 0));
  const int reps = static_cast<int>(a.at_least("reps", 100, 1));
  const std::string scheme = a.get("scheme", "na");
  enum class Scheme { kNa, kMp, kOs };
  const Scheme kind = a.pick<Scheme>(
      "scheme", "na",
      {{"na", Scheme::kNa}, {"mp", Scheme::kMp}, {"os", Scheme::kOs}});
  NARMA_CHECK(ranks == 2) << "pingpong needs exactly 2 ranks";

  WorldParams wp = world_params(a);
  if (a.has("intranode")) wp.fabric.ranks_per_node = ranks;
  World world(2, wp);
  if (a.has("profile")) world.enable_profiling();

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
      if (kind == Scheme::kMp) {
        ping_pong_mp(first);
      } else if (kind == Scheme::kOs) {
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
  return write_out(world, a, 0);
}

int run_stencil(const Args& a) {
  a.check_flags(
      {kWorldFlags, kFtFlags, "ranks= rows= cols= iters= per-point= variant="});
  const int ranks = static_cast<int>(a.at_least("ranks", 4, 1));
  apps::StencilConfig cfg;
  cfg.rows = static_cast<int>(a.at_least("rows", 256, 1));
  cfg.total_cols = static_cast<int>(a.at_least("cols", 1024, 1));
  cfg.iters = static_cast<int>(a.at_least("iters", 2, 1));
  // Charged compute cost per point update, in ps (default 2000 = 2 ns).
  cfg.per_point = static_cast<Time>(
      a.at_least("per-point", static_cast<long>(cfg.per_point), 0));
  const std::string v = a.get("variant", "na");
  cfg.variant = a.pick<apps::StencilVariant>(
      "variant", "na",
      {{"na", apps::StencilVariant::kNotified},
       {"mp", apps::StencilVariant::kMessagePassing},
       {"fence", apps::StencilVariant::kFence},
       {"pscw", apps::StencilVariant::kPscw}});
  WorldParams wp = world_params(a);
  const bool ft_on = apply_ft(wp, cfg.ft, a);
  World world(ranks, wp);
  if (a.has("profile")) world.enable_profiling();
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
  return write_out(world, a, res.verified ? 0 : 1);
}

int run_tree(const Args& a) {
  a.check_flags(
      {kWorldFlags, kFtFlags, "ranks= arity= elems= reps= variant="});
  const int ranks = static_cast<int>(a.at_least("ranks", 17, 1));
  apps::TreeConfig cfg;
  cfg.arity = static_cast<int>(a.at_least("arity", 16, 2));
  cfg.elems = static_cast<std::size_t>(a.at_least("elems", 1, 1));
  cfg.reps = static_cast<int>(a.at_least("reps", 5, 1));
  const std::string v = a.get("variant", "na");
  cfg.variant = a.pick<apps::TreeVariant>(
      "variant", "na",
      {{"na", apps::TreeVariant::kNotified},
       {"mp", apps::TreeVariant::kMessagePassing},
       {"pscw", apps::TreeVariant::kPscw},
       {"vendor", apps::TreeVariant::kVendorReduce}});
  WorldParams wp = world_params(a);
  const bool ft_on = apply_ft(wp, cfg.ft, a);
  World world(ranks, wp);
  if (a.has("profile")) world.enable_profiling();
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
  return write_out(world, a, res.verified ? 0 : 1);
}

int run_cholesky(const Args& a) {
  a.check_flags({kWorldFlags, "ranks= nt= b= gflops= variant="});
  const int ranks = static_cast<int>(a.at_least("ranks", 4, 1));
  apps::CholeskyConfig cfg;
  cfg.nt = static_cast<int>(a.at_least("nt", 12, 1));
  cfg.b = static_cast<int>(a.at_least("b", 32, 1));
  cfg.model_gflops = a.get_double("gflops", cfg.model_gflops);
  if (cfg.model_gflops <= 0)
    bad_flag("gflops", a.get("gflops", ""), "a positive number");
  const std::string v = a.get("variant", "na");
  cfg.variant = a.pick<apps::CholeskyVariant>(
      "variant", "na",
      {{"na", apps::CholeskyVariant::kNotified},
       {"mp", apps::CholeskyVariant::kMessagePassing},
       {"os", apps::CholeskyVariant::kOneSided}});
  WorldParams wp = world_params(a);
  World world(ranks, wp);
  if (a.has("profile")) world.enable_profiling();
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
  return write_out(world, a, res.verified ? 0 : 1);
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
