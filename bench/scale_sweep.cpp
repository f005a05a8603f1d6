// Rank-count scaling of the fiber engine (DESIGN.md §8): the PR that
// replaced one-OS-thread-per-rank with cooperatively scheduled fibers
// claims the simulator now reaches 4096+ ranks on one core. This sweep
// measures it: both paper workloads (pipelined stencil, 16-ary tree
// reduction) at ranks = 32 .. 4096, reporting wall time, executed engine
// events, events/sec, and peak RSS.
//
// Each configuration runs in a forked child so its peak RSS (VmHWM) is its
// own, not the high-water mark of whichever larger run came before it in
// the process. The child runs the workload and ships its measurements back
// through a pipe; virtual-time results are checked for correctness (the
// sweep must not trade verification for scale).
//
// CI regression gating: the scale_sweep rules of tools/check_bench.py hold
// the NARMA_JSON export to the committed bench/BENCH_scale.json (events/s
// floor, RSS ceiling, wall-clock ceiling, observability-cost pair).
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "apps/tree.hpp"
#include "bench_util.hpp"

namespace {

using namespace narma;

struct Sample {
  std::uint64_t wall_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_rss_kb = 0;
  std::uint32_t verified = 0;
  // Recovery legs only (zero elsewhere): the victim's fail->rejoin virtual
  // time, the checkpoint epoch it rolled back to, and replayed entries.
  std::uint64_t recovery_ps = 0;
  std::uint64_t restored_epoch = 0;
  std::uint64_t replayed = 0;
};

std::uint64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

Sample run_stencil_child(int nranks) {
  apps::StencilConfig cfg;
  cfg.rows = 64;
  cfg.total_cols = 2 * nranks;  // weak scaling: two columns per rank
  cfg.iters = 1;
  cfg.variant = apps::StencilVariant::kNotified;
  cfg.per_point = ns(2);  // charged, not measured: deterministic
  World world(nranks);
  apps::StencilResult res;
  const std::uint64_t t0 = wallclock_ns();
  world.run([&](Rank& self) {
    apps::StencilResult r = apps::run_stencil(self, cfg);
    if (self.id() == 0) res = r;
  });
  Sample s;
  s.wall_ns = wallclock_ns() - t0;
  s.events = world.engine().events_executed();
  s.peak_rss_kb = peak_rss_kb();
  s.verified = res.verified ? 1 : 0;
  return s;
}

Sample run_tree_child(int nranks) {
  apps::TreeConfig cfg;
  cfg.elems = 4;
  cfg.arity = 16;
  cfg.reps = 4;
  cfg.variant = apps::TreeVariant::kNotified;
  World world(nranks);
  apps::TreeResult res;
  const std::uint64_t t0 = wallclock_ns();
  world.run([&](Rank& self) {
    apps::TreeResult r = apps::run_tree(self, cfg);
    if (self.id() == 0) res = r;
  });
  Sample s;
  s.wall_ns = wallclock_ns() - t0;
  s.events = world.engine().events_executed();
  s.peak_rss_kb = peak_rss_kb();
  s.verified = res.verified ? 1 : 0;
  return s;
}

/// Observability-cost pair (DESIGN.md §14): the same stencil once with
/// everything off and once with the full observability stack — the metrics
/// registry, the flight recorder, and the anomaly journal.
/// The Pair rule of tools/check_bench.py gates the wall-clock factor and
/// RSS delta between the two rows at the largest rank count.
Sample run_stencil_obs_pair(int nranks, bool obs_on) {
  apps::StencilConfig cfg;  // same shape as run_stencil_child
  cfg.rows = 64;
  cfg.total_cols = 2 * nranks;
  cfg.iters = 1;
  cfg.variant = apps::StencilVariant::kNotified;
  cfg.per_point = ns(2);
  WorldParams wp;
  wp.obs.metrics = obs_on;
  wp.obs.timeseries = obs_on;
  if (!obs_on) wp.obs.journal_capacity = 0;
  World world(nranks, wp);
  apps::StencilResult res;
  const std::uint64_t t0 = wallclock_ns();
  world.run([&](Rank& self) {
    apps::StencilResult r = apps::run_stencil(self, cfg);
    if (self.id() == 0) res = r;
  });
  Sample s;
  s.wall_ns = wallclock_ns() - t0;
  s.events = world.engine().events_executed();
  s.peak_rss_kb = peak_rss_kb();
  s.verified = res.verified ? 1 : 0;
  return s;
}

Sample run_stencil_obs0_child(int nranks) {
  return run_stencil_obs_pair(nranks, false);
}

Sample run_stencil_obs_child(int nranks) {
  return run_stencil_obs_pair(nranks, true);
}

/// Recovery-time leg (DESIGN.md §15): the notified stencil under a pinned
/// fail-stop, swept over the checkpoint interval. The fail plan is fixed —
/// a mid-pipeline rank fails at the end of epoch kFailEpoch — so the only
/// variable across rows is how many epochs the victim must re-run from its
/// last partner checkpoint: interval 1 loses one epoch, interval 8 (no
/// intermediate checkpoint) rolls clear back to epoch 0.
constexpr int kFtIters = 8;
constexpr std::uint64_t kFailEpoch = 6;
constexpr double kFailRate = 0.02;

/// Searches for a fault seed under which the runtime victim scan (first
/// rank whose fail_draw fires at kFailEpoch) picks `victim`. fail_draw is a
/// pure counter-based hash, so this agrees with the simulated plan exactly.
std::uint64_t pin_fail_seed(int nranks, int victim) {
  for (std::uint64_t seed = 1;; ++seed) {
    net::FaultParams fp;
    fp.seed = seed;
    fp.fail_rate = kFailRate;
    const net::FaultInjector inj(fp, nranks);
    if (!inj.fail_draw(victim, kFailEpoch)) continue;
    bool earlier = false;
    for (int r = 0; r < victim && !earlier; ++r)
      earlier = inj.fail_draw(r, kFailEpoch);
    if (!earlier) return seed;
  }
}

Sample run_recovery_child(int nranks, int interval) {
  apps::StencilConfig cfg;
  cfg.rows = 64;
  cfg.total_cols = 2 * nranks;
  cfg.iters = kFtIters;
  cfg.variant = apps::StencilVariant::kNotified;
  cfg.per_point = ns(2);
  cfg.ft.enabled = true;
  cfg.ft.ckpt_interval = interval;
  cfg.ft.min_fail_epoch = kFailEpoch;
  WorldParams wp;
  wp.fabric.faults.fail_rate = kFailRate;
  wp.fabric.faults.seed = pin_fail_seed(nranks, nranks / 2);
  World world(nranks, wp);
  apps::StencilResult res;
  ft::FtStats victim;
  const std::uint64_t t0 = wallclock_ns();
  world.run([&](Rank& self) {
    apps::StencilResult r = apps::run_stencil(self, cfg);
    if (self.id() == 0) res = r;
    if (r.ft.fails > 0) victim = r.ft;
  });
  Sample s;
  s.wall_ns = wallclock_ns() - t0;
  s.events = world.engine().events_executed();
  s.peak_rss_kb = peak_rss_kb();
  s.verified = (res.verified && victim.fails == 1) ? 1 : 0;
  s.recovery_ps = static_cast<std::uint64_t>(victim.recovery_time);
  s.restored_epoch = victim.restored_epoch;
  s.replayed = victim.replay_applied;
  return s;
}

template <int K>
Sample run_recovery_child_k(int nranks) {
  return run_recovery_child(nranks, K);
}

/// Forks, runs `fn(nranks)` in the child, and reads the Sample back through
/// a pipe. A child that crashes or fails verification aborts the sweep —
/// scale without correctness is not a result.
Sample run_isolated(Sample (*fn)(int), int nranks) {
  int fds[2];
  NARMA_CHECK(pipe(fds) == 0) << "pipe: " << std::strerror(errno);
  const pid_t pid = fork();
  NARMA_CHECK(pid >= 0) << "fork: " << std::strerror(errno);
  if (pid == 0) {
    close(fds[0]);
    const Sample s = fn(nranks);
    ssize_t w = write(fds[1], &s, sizeof s);
    _exit(w == static_cast<ssize_t>(sizeof s) ? 0 : 1);
  }
  close(fds[1]);
  Sample s;
  const ssize_t got = read(fds[0], &s, sizeof s);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  NARMA_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child for " << nranks << " ranks failed (status " << status << ")";
  NARMA_CHECK(got == static_cast<ssize_t>(sizeof s)) << "short sample read";
  NARMA_CHECK(s.verified == 1) << "workload failed verification at "
                               << nranks << " ranks";
  return s;
}

struct App {
  const char* name;
  Sample (*fn)(int);
};

/// Runs each app `nreps` times per rank count and prints one table per app
/// with its best rep. The apps' forks alternate within each rep, so apps
/// swept together (the observability pair) are measured back to back and
/// their ratio does not absorb the host's drift between two separate
/// sweeps.
void sweep(const std::vector<App>& apps, const std::vector<int>& rank_counts,
           int nreps) {
  std::vector<std::vector<Sample>> best(
      apps.size(), std::vector<Sample>(rank_counts.size()));
  for (std::size_t r = 0; r < rank_counts.size(); ++r) {
    for (auto& app_best : best) app_best[r].wall_ns = ~0ull;
    for (int rep = 0; rep < nreps; ++rep)
      for (std::size_t a = 0; a < apps.size(); ++a) {
        const Sample s = run_isolated(apps[a].fn, rank_counts[r]);
        if (s.wall_ns < best[a][r].wall_ns) best[a][r] = s;
      }
  }
  for (std::size_t a = 0; a < apps.size(); ++a) {
    Table t({"app", "ranks", "wall ms", "events", "Mevents/s",
             "peak RSS MiB"});
    for (std::size_t r = 0; r < rank_counts.size(); ++r) {
      const Sample& b = best[a][r];
      const double ms = static_cast<double>(b.wall_ns) / 1e6;
      const double meps = static_cast<double>(b.events) /
                          (static_cast<double>(b.wall_ns) / 1e3);
      char wall[32], rate[32], rss[32];
      std::snprintf(wall, sizeof wall, "%.1f", ms);
      std::snprintf(rate, sizeof rate, "%.2f", meps);
      std::snprintf(rss, sizeof rss, "%.1f",
                    static_cast<double>(b.peak_rss_kb) / 1024.0);
      t.add_row({apps[a].name, std::to_string(rank_counts[r]), wall,
                 std::to_string(b.events), rate, rss});
    }
    bench::print(t);
  }
}

void recovery_sweep(int nranks, int nreps) {
  Table t({"app", "ranks", "ckpt interval", "wall ms", "events", "Mevents/s",
           "peak RSS MiB", "recovery us", "lost epochs", "replayed"});
  struct Leg {
    const char* app;
    int interval;
    Sample (*fn)(int);
  };
  const Leg legs[] = {{"recovery_k1", 1, run_recovery_child_k<1>},
                      {"recovery_k2", 2, run_recovery_child_k<2>},
                      {"recovery_k4", 4, run_recovery_child_k<4>},
                      {"recovery_k8", 8, run_recovery_child_k<8>}};
  for (const Leg& leg : legs) {
    Sample best;
    best.wall_ns = ~0ull;
    for (int rep = 0; rep < nreps; ++rep) {
      const Sample s = run_isolated(leg.fn, nranks);
      if (s.wall_ns < best.wall_ns) best = s;
    }
    const double ms = static_cast<double>(best.wall_ns) / 1e6;
    const double meps = static_cast<double>(best.events) /
                        (static_cast<double>(best.wall_ns) / 1e3);
    char wall[32], rate[32], rss[32], rec[32];
    std::snprintf(wall, sizeof wall, "%.1f", ms);
    std::snprintf(rate, sizeof rate, "%.2f", meps);
    std::snprintf(rss, sizeof rss, "%.1f",
                  static_cast<double>(best.peak_rss_kb) / 1024.0);
    std::snprintf(rec, sizeof rec, "%.2f",
                  static_cast<double>(best.recovery_ps) / 1e6);
    t.add_row({leg.app, std::to_string(nranks), std::to_string(leg.interval),
               wall, std::to_string(best.events), rate, rss, rec,
               std::to_string(kFailEpoch - best.restored_epoch),
               std::to_string(best.replayed)});
  }
  bench::print(t);
}

}  // namespace

int main() {
  bench::header("scale_sweep", "fiber-engine rank scaling (one core)");
  const int nreps = bench::reps(3);
  std::vector<int> rank_counts = {32, 256, 1024, 4096};
  if (bench::scale() < 1.0) rank_counts = {32, 256};  // smoke shape
  bench::note("stencil: 64 rows x 2 cols/rank, 1 iter, notified, "
              "per_point=2ns; tree: 16-ary, 4 doubles, 4 reps, notified");
  bench::note("each config forked fresh (per-run VmHWM); best of " +
              std::to_string(nreps) + " reps");
  sweep({{"stencil", run_stencil_child}}, rank_counts, nreps);
  sweep({{"tree", run_tree_child}}, rank_counts, nreps);
  bench::note("stencil_obs0/_obs: same stencil with observability fully off "
              "vs the full stack (metrics + recorder + journal), "
              "forks alternating within each rep");
  sweep({{"stencil_obs0", run_stencil_obs0_child},
         {"stencil_obs", run_stencil_obs_child}},
        rank_counts, nreps);
  bench::note("recovery_k*: notified stencil (64 rows x 2 cols/rank, 8 "
              "iters) with a pinned fail-stop of rank n/2 at epoch 6; "
              "recovery time vs checkpoint interval");
  recovery_sweep(32, nreps);
  return 0;
}
