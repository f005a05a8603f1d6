// Host-cost benchmark program. One invocation is one repetition of one
// workload in a fresh process (so peak RSS and the allocator start clean);
// perfbench/run.py forks it repeatedly and aggregates. Every layer is driven
// through public entry points only: World construction / run / destruction,
// the apps::run_* collectives, World::enable_profiling() and the metrics
// registry. Output is one JSON object on stdout.
//
//   narma_perfbench rep <workload> <seed> <profile 0|1>
//   narma_perfbench ops <workload>
//   narma_perfbench calib
//
// Workloads (see perfbench/README.md for why each was chosen):
//   tree_na_4096      16-ary notified tree, 4096 ranks, one rank per node
//   cholesky_na_16    Fig. 5 task Cholesky, 16 ranks, nt=48, b=32, 10 GF/s
//   stencil_na_ft_32  notified stencil, 4 nodes x 8 ranks, 2048^2, 8 iters,
//                     per-epoch partner checkpoints, one seeded fail-stop
//
// All three charge compute (per_point / model_gflops), so virtual time and
// the event schedule are identical from run to run.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/stencil.hpp"
#include "apps/tree.hpp"
#include "ft/recovery.hpp"

namespace {

using namespace narma;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f))
    if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) break;
  std::fclose(f);
  return kb;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "narma_perfbench: %s\nusage: narma_perfbench rep <workload> "
               "<seed> <0|1>\n       narma_perfbench ops <workload>\n"
               "       narma_perfbench calib\n",
               msg);
  std::exit(2);
}

// --- Host-speed calibrant ---------------------------------------------------
//
// On a shared host, the memory system's speed drifts by tens of percent over
// minutes as neighbours come and go, and every workload here slows with it.
// run.py times this fixed, NARMA-independent memory probe between
// repetitions and scales host times to a reference probe time, so the drift
// largely cancels while a change to the simulator's own code still shows in
// full.

/// Host ns of a fixed memory probe over a 64 MiB table (beyond what a
/// neighbour-loaded last-level cache keeps): a dependent-load chain for
/// latency plus sequential read passes for bandwidth. The table is a
/// full-period LCG (i -> i*K + C mod 2^24; C odd, K = 1 mod 4), so the chain
/// visits slots in an order no prefetcher follows.
std::uint64_t calibrant_ns() {
  constexpr std::uint32_t kSlots = 1u << 24;
  constexpr std::uint32_t kSteps = 250000;
  constexpr int kReadPasses = 4;
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i)
    next[i] = (i * 2654435761u + 12345u) & (kSlots - 1);
  const std::uint64_t t0 = now_ns();
  std::uint32_t p = 0;
  for (std::uint32_t i = 0; i < kSteps; ++i) p = next[p];
  std::uint64_t sum = 0;
  for (int pass = 0; pass < kReadPasses; ++pass)
    for (std::uint32_t v : next) sum += v;
  const std::uint64_t t1 = now_ns();
  if (p == kSlots || sum == 0) std::abort();  // keeps both loops observable
  return t1 - t0;
}

// --- Workload definitions ---------------------------------------------------

enum class Workload { kTree, kCholesky, kStencilFt };

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kTree: return "tree_na_4096";
    case Workload::kCholesky: return "cholesky_na_16";
    case Workload::kStencilFt: return "stencil_na_ft_32";
  }
  return "?";
}

Workload parse_workload(const std::string& s) {
  if (s == "tree_na_4096") return Workload::kTree;
  if (s == "cholesky_na_16") return Workload::kCholesky;
  if (s == "stencil_na_ft_32") return Workload::kStencilFt;
  usage(("unknown workload '" + s + "'").c_str());
}

constexpr int kStencilRanks = 32;
constexpr int kStencilRanksPerNode = 8;
constexpr int kStencilIters = 8;
// The fail plan is consulted from this epoch on, and the seed search below
// guarantees some rank fires exactly here: one fail-stop, mid-run.
constexpr std::uint64_t kFailEpoch = 4;
constexpr double kFailRate = 0.02;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct FailPlan {
  std::uint64_t fault_seed = 0;
  int victim = -1;
};

/// First fault seed at or after a hash of the workload seed under which the
/// runtime victim scan (first rank whose fail_draw fires at the epoch)
/// finds a victim at kFailEpoch. fail_draw is a pure counter-based hash, so
/// this agrees with the simulated plan exactly; max_fails = 1 makes that
/// failure the only one.
FailPlan pick_fail_plan(std::uint64_t seed) {
  for (std::uint64_t fs = splitmix64(seed);; ++fs) {
    net::FaultParams fp;
    fp.seed = fs;
    fp.fail_rate = kFailRate;
    const net::FaultInjector inj(fp, kStencilRanks);
    for (int r = 0; r < kStencilRanks; ++r)
      if (inj.fail_draw(r, kFailEpoch)) return {fs, r};
  }
}

WorldParams world_params(Workload w, std::uint64_t seed) {
  WorldParams wp;
  if (w == Workload::kStencilFt) {
    wp.fabric.ranks_per_node = kStencilRanksPerNode;
    wp.fabric.faults.fail_rate = kFailRate;
    wp.fabric.faults.max_fails = 1;
    wp.fabric.faults.seed = pick_fail_plan(seed).fault_seed;
  }
  return wp;
}

int nranks_of(Workload w) {
  switch (w) {
    case Workload::kTree: return 4096;
    case Workload::kCholesky: return 16;
    case Workload::kStencilFt: return kStencilRanks;
  }
  return 0;
}

apps::TreeConfig tree_config() {
  apps::TreeConfig cfg;
  cfg.elems = 4;
  cfg.arity = 16;
  cfg.reps = 4;
  cfg.variant = apps::TreeVariant::kNotified;
  return cfg;
}

apps::CholeskyConfig cholesky_config(std::uint64_t seed) {
  apps::CholeskyConfig cfg;
  cfg.nt = 48;
  cfg.b = 32;
  cfg.seed = seed;
  cfg.variant = apps::CholeskyVariant::kNotified;
  cfg.verify = true;
  cfg.model_gflops = 10.0;
  return cfg;
}

apps::StencilConfig stencil_config() {
  apps::StencilConfig cfg;
  cfg.rows = 2048;
  cfg.total_cols = 2048;
  cfg.iters = kStencilIters;
  cfg.variant = apps::StencilVariant::kNotified;
  cfg.per_point = ns(2);
  cfg.ft.enabled = true;
  cfg.ft.ckpt_interval = 1;
  cfg.ft.partner_offset = kStencilRanksPerNode;  // partner on the next node
  cfg.ft.min_fail_epoch = kFailEpoch;
  return cfg;
}

// --- One repetition ---------------------------------------------------------

struct Outcome {
  Time elapsed = 0;
  bool verified = false;
};

/// Per-rank fail/rejoin accounting of the stencil_na_ft_32 recovery.
struct FtTally {
  std::uint64_t fails = 0;
  std::uint64_t recovered = 0;  // victims whose recovery completed
  int victim = -1;
};

// Registry families a traced repetition reports (run.py maps them to the
// per-layer metric names). Counters are summed over ranks; the gauges are
// rank-0 globals, including the profiler's obs.phase_* self times.
constexpr const char* kCounters[] = {
    "sim.events_executed", "sim.events_posted", "net.fma_ops",
    "net.bte_ops",         "net.shm_ops",       "net.retries",
    "na.tests",            "na.matches",        "na.uq_inserts",
    "mp.sends_eager",      "mp.sends_rdzv",     "rma.flushes",
    "ft.ckpts",            "ft.ckpt_bytes",     "ft.replay_applied"};
constexpr const char* kGauges[] = {
    "obs.phase_engine_pop_ns",  "obs.phase_callback_ns",
    "obs.phase_rank_exec_ns",   "obs.phase_match_ns",
    "obs.phase_transfer_ns",    "obs.phase_app_compute_ns",
    "obs.phase_obs_ns",         "obs.profile_unattributed_ns",
    "obs.profile_total_ns",     "sim.event_pool_oversize",
    "obs.registry_bytes"};

/// Appends `"key":value` to a JSON object under construction; `value` is
/// already JSON text.
void field(std::string& out, const char* key, const std::string& value) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":" + value;
}
void field(std::string& out, const char* key, std::int64_t v) {
  field(out, key, std::to_string(v));
}
void field(std::string& out, const char* key, std::uint64_t v) {
  field(out, key, std::to_string(v));
}

int run_rep(Workload w, std::uint64_t seed, bool profile) {
  const int n = nranks_of(w);
  const apps::TreeConfig tree_cfg = tree_config();
  const apps::CholeskyConfig chol_cfg = cholesky_config(seed);
  const apps::StencilConfig sten_cfg = stencil_config();
  const WorldParams wp = world_params(w, seed);

  Outcome out;
  FtTally ft;
  std::uint64_t t_first = 0, t_last = 0;
  auto rank_main = [&](Rank& self) {
    if (t_first == 0) t_first = now_ns();
    Outcome o;
    switch (w) {
      case Workload::kTree: {
        const apps::TreeResult r = apps::run_tree(self, tree_cfg);
        o = {r.elapsed, r.verified};
        break;
      }
      case Workload::kCholesky: {
        const apps::CholeskyResult r = apps::run_cholesky(self, chol_cfg);
        o = {r.elapsed, r.verified};
        break;
      }
      case Workload::kStencilFt: {
        const apps::StencilResult r = apps::run_stencil(self, sten_cfg);
        o = {r.elapsed, r.verified};
        if (r.ft.fails > 0) {
          ft.fails += r.ft.fails;
          ft.victim = self.id();
          if (!r.ft.dead && r.ft.recovery_time > 0) ++ft.recovered;
        }
        break;
      }
    }
    if (self.id() == 0) out = o;
    t_last = now_ns();
  };

  const std::uint64_t t_ctor0 = now_ns();
  auto world = std::make_unique<World>(n, wp);
  const std::uint64_t t_ctor1 = now_ns();
  if (profile) world->enable_profiling();
  const std::uint64_t t_run0 = now_ns();
  world->run(rank_main);
  const std::uint64_t t_run1 = now_ns();

  // Read everything the result needs while the World is alive; this gap is
  // excluded from every reported span.
  std::string json = "{";
  field(json, "workload", std::string("\"") + workload_name(w) + "\"");
  field(json, "seed", seed);
  if (w == Workload::kCholesky) field(json, "matrix_seed", chol_cfg.seed);
  if (w == Workload::kStencilFt) {
    std::uint64_t journal_fail = 0, journal_rejoin = 0;
    if (const obs::Journal* j = world->journal()) {
      for (const obs::Journal::Record& rec : j->records()) {
        journal_fail += rec.kind == obs::JournalKind::kRankFail;
        journal_rejoin += rec.kind == obs::JournalKind::kRankRejoin;
      }
    }
    field(json, "fault_seed", wp.fabric.faults.seed);
    field(json, "planned_victim",
          static_cast<std::int64_t>(pick_fail_plan(seed).victim));
    field(json, "victim", static_cast<std::int64_t>(ft.victim));
    field(json, "fails", ft.fails);
    field(json, "recovered", ft.recovered);
    field(json, "journal_fail", journal_fail);
    field(json, "journal_rejoin", journal_rejoin);
  }
  field(json, "verified", std::string(out.verified ? "true" : "false"));
  field(json, "virtual_ps", static_cast<std::uint64_t>(out.elapsed));
  if (profile) {
    const obs::Registry& reg = *world->metrics();
    std::string fam = "{";
    for (const char* name : kCounters)
      field(fam, name, reg.aggregate_counter_sum(name));
    for (const char* name : kGauges)
      field(fam, name, reg.gauge_value(name, 0));
    field(json, "registry", fam + "}");
  }

  const std::uint64_t t_dtor0 = now_ns();
  world.reset();
  const std::uint64_t t_dtor1 = now_ns();

  field(json, "ctor_ns", t_ctor1 - t_ctor0);
  field(json, "fiber_start_ns", t_first - t_run0);
  field(json, "setup_ns", t_first - t_ctor0);
  field(json, "run_ns", t_run1 - t_first);
  field(json, "fiber_reap_ns", t_run1 - t_last);
  field(json, "dtor_ns", t_dtor1 - t_dtor0);
  field(json, "wall_ns", (t_run1 - t_ctor0) + (t_dtor1 - t_dtor0));
  field(json, "peak_rss_kb", peak_rss_kb());
  std::printf("%s}\n", json.c_str());
  return 0;
}

// --- Per-layer op-cost loops ------------------------------------------------
//
// Each loop times one public call in a two-rank World laid out like the
// workload (ranks 0 and 1 share a node only where the workload's dominant
// pair does), with the workload's message size. Host ns/op is the median of
// kBatches batches, timed on rank 0 between barriers so the peer's share of
// the simulated work is included.

constexpr int kBatches = 5;

struct OpShape {
  std::size_t msg_bytes;    // workload's dominant message size
  std::size_t ckpt_bytes;   // workload's per-rank protected window
  int ranks_per_node;       // 2 = shared node (shm), 1 = inter-node
};

OpShape op_shape(Workload w) {
  switch (w) {
    case Workload::kTree:  // 4 doubles per contribution, 16 child slots
      return {4 * sizeof(double), 16 * 4 * sizeof(double), 1};
    case Workload::kCholesky:  // one 32x32 tile
      return {32 * 32 * sizeof(double), 32 * 32 * sizeof(double), 1};
    case Workload::kStencilFt:  // one boundary double; a 2048x64 block
      return {sizeof(double), 2048 * 64 * sizeof(double), 2};
  }
  return {8, 8, 1};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Runs `body(self, ops)` on both ranks of a fresh two-rank World, kBatches
/// times, and returns the median host ns per op as seen by rank 0.
template <class Body>
double time_ops(const OpShape& s, int ops, Body body) {
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    WorldParams wp;
    wp.fabric.ranks_per_node = s.ranks_per_node;
    World world(2, wp);
    double ns_per_op = 0;
    world.run([&](Rank& self) {
      self.barrier();
      const std::uint64_t t0 = now_ns();
      body(self, ops);
      self.barrier();
      if (self.id() == 0)
        ns_per_op = static_cast<double>(now_ns() - t0) / ops;
    });
    per_op.push_back(ns_per_op);
  }
  return median(per_op);
}

int run_ops(Workload w) {
  const OpShape s = op_shape(w);
  const WorldParams defaults;

  // Fabric::reserve_transfer on the workload's lane, called directly.
  double reserve_ns = 0;
  {
    constexpr int kOps = 200000;
    std::vector<double> per_op;
    for (int b = 0; b < kBatches; ++b) {
      WorldParams wp;
      wp.fabric.ranks_per_node = s.ranks_per_node;
      World world(2, wp);
      net::Fabric& fab = world.fabric();
      const net::Transport lane = fab.transport_for(0, 1, s.msg_bytes);
      Time t = 0;
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < kOps; ++i)
        t = fab.reserve_transfer(0, 1, t, s.msg_bytes, lane,
                                 net::Fabric::ChannelClass::kData);
      per_op.push_back(static_cast<double>(now_ns() - t0) / kOps);
    }
    reserve_ns = median(per_op);
  }

  // NA put_notify + a hitting test: a batch of notified puts lands in the
  // target's queues, then the target consumes each with start + test.
  constexpr int kNaOps = 4096;  // below every notification-queue capacity
  const double hit_ns = time_ops(s, kNaOps, [&](Rank& self, int ops) {
    std::vector<std::byte> buf(s.msg_bytes * 2);
    auto win = self.win_allocate(buf.size());
    if (self.id() == 0) {
      for (int i = 0; i < ops; ++i)
        self.na().put_notify(*win, std::span(buf).first(s.msg_bytes), 1, 0,
                             7);
      win->flush(1);
    }
    self.barrier();
    if (self.id() == 1) {
      na::NotifyRequest req = self.na().notify_init(*win, {0, 7}, 1);
      for (int i = 0; i < ops; ++i) {
        self.na().start(req);
        if (!self.na().test(req)) usage("match_hit: test missed");
      }
      self.na().free(req);
    }
    self.barrier();
  });

  // A test that misses: one unmatched notification waits in the target's
  // unexpected queue while a request for another tag is tested.
  const double miss_ns = time_ops(s, kNaOps * 8, [&](Rank& self, int ops) {
    std::vector<std::byte> buf(s.msg_bytes);
    auto win = self.win_allocate(buf.size());
    if (self.id() == 0) {
      self.na().put_notify(*win, buf, 1, 0, 5);
      win->flush(1);
    }
    self.barrier();
    if (self.id() == 1) {
      na::NotifyRequest req = self.na().notify_init(*win, {0, 9}, 1);
      self.na().start(req);
      for (int i = 0; i < ops; ++i)
        if (self.na().test(req)) usage("match_miss: test hit");
      self.na().free(req);
      na::NotifyRequest drain = self.na().notify_init(*win, {0, 5}, 1);
      self.na().start(drain);
      self.na().wait(drain);
      self.na().free(drain);
    }
    self.barrier();
  });

  // rma::Window put + flush, one at a time.
  const double put_flush_ns = time_ops(s, 8192, [&](Rank& self, int ops) {
    std::vector<std::byte> buf(s.msg_bytes);
    auto win = self.win_allocate(buf.size());
    if (self.id() == 0)
      for (int i = 0; i < ops; ++i) {
        win->put(buf.data(), buf.size(), 1, 0);
        win->flush(1);
      }
    self.barrier();
  });

  // mp::Endpoint blocking sends matched by blocking receives.
  auto sends = [&](std::size_t bytes) {
    return [bytes](Rank& self, int ops) {
      std::vector<std::byte> buf(bytes);
      for (int i = 0; i < ops; ++i) {
        if (self.id() == 0) self.mp().send(buf.data(), bytes, 1, 3);
        else self.mp().recv(buf.data(), bytes, 0, 3);
      }
    };
  };
  const std::size_t eager_bytes =
      std::min(s.msg_bytes, defaults.mp.eager_threshold);
  const std::size_t rdzv_bytes =
      std::max(s.msg_bytes, 2 * defaults.mp.eager_threshold);
  const double eager_ns = time_ops(s, 8192, sends(eager_bytes));
  const double rdzv_ns = time_ops(s, 4096, sends(rdzv_bytes));

  // One ft checkpoint round: RecoveryManager::end_epoch with a checkpoint
  // every epoch and no fail plan (barrier + partner put_notify + wait).
  const int ckpt_ops = s.ckpt_bytes > (64u << 10) ? 256 : 4096;
  const double ckpt_ns = time_ops(s, ckpt_ops, [&](Rank& self, int ops) {
    std::vector<std::byte> state(s.ckpt_bytes);
    auto win = self.rma().create(state.data(), state.size(), 1);
    ft::FtParams fp;
    fp.enabled = true;
    fp.ckpt_interval = 1;
    ft::RecoveryManager mgr(self, fp, {win.get()});
    for (int i = 0; i < ops; ++i) mgr.end_epoch();
  });

  const na::NaParams& na = defaults.na;
  const rma::RmaParams& rma = defaults.rma;
  std::printf(
      "{\"msg_bytes\":%zu,\"ckpt_bytes\":%zu,\"ranks_per_node\":%d,"
      "\"reserve_transfer_ns\":%.3f,\"match_hit_ns\":%.3f,"
      "\"match_miss_ns\":%.3f,\"put_flush_ns\":%.3f,\"send_eager_ns\":%.3f,"
      "\"send_rdzv_ns\":%.3f,\"ckpt_round_ns\":%.3f,\"eager_bytes\":%zu,"
      "\"rdzv_bytes\":%zu,\"virtual\":{\"t_na_ns\":%.1f,\"o_r_ns\":%.1f,"
      "\"t_start_ns\":%.1f,\"t_init_ns\":%.1f,\"t_free_ns\":%.1f,"
      "\"o_put_ns\":%.1f,\"o_flush_ns\":%.1f}}\n",
      s.msg_bytes, s.ckpt_bytes, s.ranks_per_node, reserve_ns, hit_ns,
      miss_ns, put_flush_ns, eager_ns, rdzv_ns, ckpt_ns, eager_bytes,
      rdzv_bytes, to_ns(na.t_na), to_ns(na.o_r), to_ns(na.t_start),
      to_ns(na.t_init), to_ns(na.t_free), to_ns(rma.o_put),
      to_ns(rma.o_flush));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "calib") {
    std::printf("{\"calibrant_ns\":%llu}\n",
                static_cast<unsigned long long>(calibrant_ns()));
    return 0;
  }
  if (argc < 3) usage("missing arguments");
  const std::string mode = argv[1];
  const Workload w = parse_workload(argv[2]);
  if (mode == "ops" && argc == 3) return run_ops(w);
  if (mode != "rep" || argc != 5) usage("bad arguments");
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(argv[3], &end, 10);
  if (!*argv[3] || *end) usage("seed must be a non-negative integer");
  const std::string prof = argv[4];
  if (prof != "0" && prof != "1") usage("profile flag must be 0 or 1");
  return run_rep(w, seed, prof == "1");
}
