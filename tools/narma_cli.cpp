// narma_cli — experiment driver.
//
// Runs the paper's workloads with command-line parameters, without editing
// benchmark sources:
//
//   narma_cli pingpong --scheme=na --ranks=2 --bytes=8 --reps=100
//   narma_cli stencil  --variant=na --ranks=16 --rows=512 --cols=2048
//   narma_cli tree     --variant=na --ranks=64 --arity=16 --elems=8
//   narma_cli cholesky --variant=mp --ranks=8 --nt=24 --b=32 --out=run
//
// Every run prints one result line, suitable for scripting sweeps, and with
// --out=DIR writes its run directory: one fixed-name JSON file per recorder
// (World::write_artifacts). `report`, `critpath`, `timeline` and `diff`
// read a run directory back through the obs readers (obs/readers.hpp):
// per-rank busy fractions, critical paths, flight-recorder windows, a
// Perfetto trace, and run-to-run deltas. This file holds only the flags,
// the usage text, the four run commands and the dispatch.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/pingpong.hpp"
#include "apps/stencil.hpp"
#include "apps/tree.hpp"
#include "common/file.hpp"
#include "narma/narma.hpp"
#include "obs/readers.hpp"

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
    " metrics msgtrace timeseries journal ";

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
    std::string key = s.substr(2, eq == std::string::npos ? eq : eq - 2);
    if (eq == std::string::npos) {
      a.bare.insert(key);
      a.kv.insert_or_assign(std::move(key), std::string(1, '1'));
    } else {
      a.bare.erase(key);
      a.kv.insert_or_assign(std::move(key), s.substr(eq + 1));
    }
  }
  return a;
}

int usage() {
  std::fputs(
      "usage: narma_cli <command> [--key=value ...]\n"
      "\n"
      "run commands (each prints one result line):\n"
      "  pingpong  --scheme=na|mp|os --bytes=B --reps=R [--ranks=2]\n"
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
      "            [--msgtrace]       causal message trace -> msgtrace.json\n"
      "            [--msgtrace-sample=N]  trace every Nth message (default 1)\n"
      "            [--timeseries]     flight recorder -> timeseries.json\n"
      "            [--timeseries-window-us=N]  snapshot cadence (default 100)\n"
      "            [--profile]        host-time phase profiling; results land\n"
      "                               in metrics.json as obs.phase_*\n"
      "            [--journal-cap=N]  anomaly-journal ring capacity\n"
      "                               (default 4096; 0 disables)\n"
      "\n"
      "readers (DIR is a run directory written with --out=DIR):\n"
      "  report    DIR\n"
      "            summarize a recorded run's metrics: per-rank busy\n"
      "            fractions, host-time phase attribution (--profile runs),\n"
      "            per-backend notification counts, histogram percentiles\n"
      "  timeline  DIR [--perfetto=FILE] [--top=N]\n"
      "            analyze the flight recorder and the anomaly journal:\n"
      "            per-window rank activity, busiest counter families,\n"
      "            stragglers; with msgtrace.json, each window's LogGP\n"
      "            residual per backend (flagged past 50%); --perfetto\n"
      "            writes a Chrome trace for Perfetto: one arrow per message\n"
      "            leg of msgtrace.json, counter tracks from timeseries.json\n"
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
/// recorder switches and the fault model.
constexpr std::string_view kWorldFlags =
    "out= msgtrace msgtrace-sample= timeseries timeseries-window-us= "
    "profile journal-cap= overflow= fault-seed= fault-drop= "
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
/// switches, fault model and anomaly-journal
/// capacity. These flags are the CLI's only way to configure a World
/// (nothing is read from the environment); only --profile is applied to the
/// built World instead (World::enable_profiling). Creates the --out
/// directory up front, so an unwritable one fails before the run rather
/// than after it.
WorldParams world_params(const Args& a) {
  if (!a.positional.empty())
    bad_usage(a.positional[0] + ": unexpected argument for " + a.command);
  for (const char* sw : {"msgtrace", "timeseries", "profile"})
    a.require(sw, "out");
  a.require("msgtrace-sample", "msgtrace");
  a.require("timeseries-window-us", "timeseries");
  WorldParams wp;
  obs::ObsParams& o = wp.obs;
  o.msgtrace = a.has("msgtrace");
  o.msgtrace_sample_every = static_cast<std::uint64_t>(a.at_least(
      "msgtrace-sample", static_cast<long>(o.msgtrace_sample_every), 1));
  o.timeseries = a.has("timeseries");
  if (a.has("timeseries-window-us"))
    o.timeseries_window_ps =
        us(static_cast<Time>(a.at_least("timeseries-window-us", 0, 1)));
  o.journal_capacity = static_cast<std::size_t>(a.at_least(
      "journal-cap", static_cast<long>(o.journal_capacity), 0));
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

// --- readers -----------------------------------------------------------------

/// `report`, `critpath`, `timeline` and `diff` (obs/readers.hpp): checks the
/// flags and the run-directory count, runs the reader on stdout, and exits
/// with its status (0 ok, 1 a file missing or malformed, 2 a usage error).
int run_reader(const Args& a) {
  const bool is_diff = a.command == "diff";
  const bool is_timeline = a.command == "timeline";
  const bool is_report = a.command == "report";
  a.check_flags({is_timeline ? "top= perfetto=" : is_report ? "" : "top="});
  const std::size_t ndirs = is_diff ? 2 : 1;
  if (a.positional.size() != ndirs)
    bad_usage(a.command + ": expected " +
              (is_diff ? "two run directories" : "one run directory") +
              " (narma_cli " + a.command + (is_diff ? " DIR DIR" : " DIR") +
              ")");
  const std::vector<std::string>& dirs = a.positional;
  obs::ReadOptions opt;
  opt.top = static_cast<std::size_t>(
      a.at_least("top", is_diff ? 15 : is_timeline ? 20 : 10, 0));
  opt.perfetto = a.get("perfetto", "");
  if (a.has("perfetto") && opt.perfetto.empty())
    bad_flag("perfetto", opt.perfetto, "a file path");
  const bool is_critpath = a.command == "critpath";
  const obs::ReadResult r =
      is_diff       ? obs::diff(dirs[0], dirs[1], opt, stdout)
      : is_timeline ? obs::timeline(dirs[0], opt, stdout)
      : is_critpath ? obs::critpath(dirs[0], opt, stdout)
                    : obs::report(dirs[0], opt, stdout);
  if (!r.diagnostic.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "%s\n", r.diagnostic.c_str());
  }
  return static_cast<int>(r.status);
}

// --- run commands ------------------------------------------------------------

int run_pingpong(const Args& a) {
  a.check_flags({kWorldFlags, "ranks= bytes= reps= scheme= intranode"});
  if (a.get("ranks", 2) != 2)
    bad_flag("ranks", a.get("ranks", ""), "2 (a ping-pong has two ranks)");
  apps::PingPongConfig cfg;
  cfg.bytes = static_cast<std::size_t>(a.at_least("bytes", 8, 0));
  cfg.reps = static_cast<int>(a.at_least("reps", 100, 1));
  const std::string scheme = a.get("scheme", "na");
  cfg.scheme = a.pick<apps::PingPongScheme>(
      "scheme", "na",
      {{"na", apps::PingPongScheme::kNotifiedPut},
       {"mp", apps::PingPongScheme::kMessagePassing},
       {"os", apps::PingPongScheme::kOneSidedPscw}});
  WorldParams wp = world_params(a);
  if (a.has("intranode")) wp.fabric.ranks_per_node = 2;
  World world(2, wp);
  if (a.has("profile")) world.enable_profiling();
  apps::PingPongResult res;
  world.run([&](Rank& self) {
    const auto r = apps::run_pingpong(self, cfg);
    if (self.id() == 0) res = r;
  });
  std::printf("pingpong scheme=%s bytes=%zu reps=%d half_rtt_us=%.3f\n",
              scheme.c_str(), cfg.bytes, cfg.reps, res.half_rtt_us);
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
  if (a.command == "report" || a.command == "critpath" ||
      a.command == "timeline" || a.command == "diff")
    return run_reader(a);
  return usage();
}
