#include "core/world.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/assert.hpp"
#include "common/env.hpp"
#include "common/fatal.hpp"

namespace narma {

namespace {

// Reads an enum-valued env knob. Unset (or empty) keeps `current`; a value
// outside `accepted` is fatal, naming the variable and what it accepts, so
// a typo never silently runs the default configuration.
template <class E, std::size_t N>
E env_enum(const char* name, E current,
           const std::pair<const char*, E> (&accepted)[N]) {
  const std::string v = env::get_string(name, "");
  if (v.empty()) return current;
  std::string names;
  for (const auto& [label, value] : accepted) {
    if (v == label) return value;
    names += names.empty() ? label : std::string("|") + label;
  }
  fatal_error(std::string(name) + "=" + v + " is not recognized (accepted: " +
              names + ")");
}

WorldParams resolve_params(WorldParams p) {
  // NARMA_STACK_KB resizes the per-rank fiber stack.
  const std::int64_t stack_kb = env::get_int(
      "NARMA_STACK_KB", static_cast<std::int64_t>(p.sim.stack_bytes / 1024));
  if (stack_kb > 0) p.sim.stack_bytes = static_cast<std::size_t>(stack_kb) * 1024;
  // Fault-model overrides (see net::FaultParams and DESIGN.md §10).
  p.fabric.faults.overflow_policy = env_enum(
      "NARMA_OVERFLOW", p.fabric.faults.overflow_policy,
      {{"fatal", net::OverflowPolicy::kFatal},
       {"backpressure", net::OverflowPolicy::kBackpressure}});
  // Inter-node transport backend (see net::TransportBackend and DESIGN.md
  // §11); shm is not a valid inter-node transport, so it is not accepted.
  p.fabric.inter_node =
      env_enum("NARMA_TRANSPORT", p.fabric.inter_node,
               {{"aries", net::BackendKind::kAries},
                {"ramc", net::BackendKind::kRamc},
                {"verbs", net::BackendKind::kVerbs}});
  net::FaultParams& f = p.fabric.faults;
  f.seed = static_cast<std::uint64_t>(
      env::get_int("NARMA_FAULT_SEED", static_cast<std::int64_t>(f.seed)));
  f.drop_rate = env::get_double("NARMA_FAULT_DROP", f.drop_rate);
  f.delay_rate = env::get_double("NARMA_FAULT_DELAY", f.delay_rate);
  f.stall_rate = env::get_double("NARMA_FAULT_STALL", f.stall_rate);
  f.pressure_rate = env::get_double("NARMA_FAULT_PRESSURE", f.pressure_rate);
  // Fail-stop plan (DESIGN.md §15): consulted only by the ft layer at epoch
  // boundaries, so these leave transfer timing untouched.
  f.fail_rate = env::get_double("NARMA_FT_FAIL_RATE", f.fail_rate);
  f.max_fails = static_cast<int>(
      env::get_int("NARMA_FT_MAX_FAILS", f.max_fails));
  // Observability-mode overrides (DESIGN.md §14).
  p.obs.obs_mode = env_enum("NARMA_OBS", p.obs.obs_mode,
                            {{"dense", obs::ObsMode::kDense},
                             {"aggregate", obs::ObsMode::kAggregate}});
  p.obs.obs_shards = static_cast<int>(
      env::get_int("NARMA_OBS_SHARDS", p.obs.obs_shards));
  p.obs.outlier_k = static_cast<int>(
      env::get_int("NARMA_OBS_OUTLIER_K", p.obs.outlier_k));
  p.obs.sample_ranks = static_cast<int>(
      env::get_int("NARMA_OBS_SAMPLE_RANKS", p.obs.sample_ranks));
  p.obs.perfetto_gauge_rank_limit = static_cast<int>(env::get_int(
      "NARMA_OBS_GAUGE_RANK_LIMIT", p.obs.perfetto_gauge_rank_limit));
  const std::int64_t jcap = env::get_int(
      "NARMA_OBS_JOURNAL_CAP",
      static_cast<std::int64_t>(p.obs.journal_capacity));
  p.obs.journal_capacity =
      jcap > 0 ? static_cast<std::size_t>(jcap) : 0;
  return p;
}

// Crash hook (NARMA_CRASH_DIR): on a fatal error, dump whatever telemetry
// this world holds so the failure is diagnosable post-mortem. Reuses the
// regular dump paths — they only read state owned by the (still-live) world.
void world_crash_dump(void* world) {
  auto* w = static_cast<World*>(world);
  const std::string dir = env::get_string("NARMA_CRASH_DIR", "");
  if (dir.empty()) return;
  w->dump_metrics(dir + "/crash_metrics.json");
  w->dump_trace(dir + "/crash_trace.json");
  w->dump_msgtrace(dir + "/crash_msgtrace.json");
  // Windows captured so far; the crash window itself is lost (finalize
  // never ran), but the time axis up to the failure survives.
  w->dump_timeseries(dir + "/crash_timeseries.json");
  // Anomaly records up to the failure — usually the most direct clue.
  w->dump_journal(dir + "/crash_journal.json");
}

}  // namespace

World::World(int nranks, WorldParams params)
    : params_(resolve_params(std::move(params))),
      engine_(std::make_unique<sim::Engine>(nranks, params_.sim)),
      metrics_(params_.enable_metrics
                   ? std::make_unique<obs::Registry>(nranks, params_.obs)
                   : nullptr),
      fabric_(std::make_unique<net::Fabric>(*engine_, params_.fabric,
                                            metrics_.get())) {
  if (params_.obs.journal_capacity > 0) {
    journal_ = std::make_unique<obs::Journal>(params_.obs.journal_capacity);
    fabric_->set_journal(journal_.get());
  }
  if (params_.obs.msgtrace) enable_msgtrace();
  if (params_.obs.timeseries) enable_timeseries();
  if (!env::get_string("NARMA_CRASH_DIR", "").empty())
    register_crash_hook(&world_crash_dump, this);
}

void World::enable_timeseries(Time window_ps) {
  if (window_ps) params_.obs.timeseries_window_ps = window_ps;
  params_.obs.timeseries = true;
  NARMA_CHECK(metrics_ != nullptr)
      << "the flight recorder snapshots the metrics registry; enable "
         "WorldParams::enable_metrics";
  if (timeseries_) return;
  timeseries_ =
      std::make_unique<obs::TimeSeries>(*metrics_, *engine_, params_.obs);
  if (journal_) timeseries_->set_journal(journal_.get());
  engine_->set_time_probe(
      timeseries_->window(), [this](Time boundary, Time horizon) {
        // The snapshot pass is itself obs work; charge it to the obs phase
        // so the recorder's own overhead shows up in the budget it reports.
        obs::PhaseScope scope(profiler_.get(), obs::Phase::kObs);
        return timeseries_->on_boundary(boundary, horizon);
      });
}

void World::enable_profiling() {
  if (profiler_) return;
  profiler_ = std::make_unique<obs::Profiler>();
  engine_->set_profiler(profiler_.get());
  fabric_->set_profiler(profiler_.get());
  if (msgtrace_) msgtrace_->set_profiler(profiler_.get());
}

World::~World() { unregister_crash_hook(&world_crash_dump, this); }

void World::run(const std::function<void(Rank&)>& rank_main) {
  if (profiler_) profiler_->start();
  engine_->run([this, &rank_main](sim::RankCtx& ctx) {
    Rank rank(*this, ctx);
    rank_main(rank);
  });
  if (profiler_) profiler_->stop();
  if (!metrics_) return;
  // Engine-level accounting, filled in after the run: per-rank busy/blocked
  // split of the final virtual time, plus the global event count. Gauges are
  // stamped at each rank's finish time so the values are well-ordered in the
  // counter tracks.
  metrics_->counter("sim.events_executed", 0).inc(engine_->events_executed());
  metrics_->counter("sim.events_posted", 0).inc(engine_->events_posted());
  metrics_->counter("sim.batched_posts", 0).inc(engine_->batched_posts());
  metrics_->counter("sim.stale_heap_skips", 0).inc(engine_->stale_heap_skips());
  // Fault-model and flow-control outcomes (DESIGN.md §10). All zero in a
  // fault-free fatal-policy run.
  const net::FabricCounters& fc = fabric_->counters();
  metrics_->counter("net.retries", 0).inc(fc.retries);
  metrics_->counter("net.drops", 0).inc(fc.drops);
  metrics_->counter("net.credit_stalls", 0).inc(fc.credit_stalls);
  metrics_->counter("net.nic_stalls", 0).inc(fc.nic_stalls);
  metrics_->counter("net.dead_drops", 0).inc(fc.dead_drops);
  // Engine-core wall-clock throughput and queue/pool occupancy: the
  // observability view of the simulator's own hot loop (events/sec is the
  // ceiling on every experiment above it).
  const Time t_end = engine_->nranks() ? engine_->rank(0).now() : 0;
  const std::uint64_t wall_ns = engine_->run_wall_ns();
  metrics_->gauge("sim.run_wall_ns", 0)
      .set(static_cast<std::int64_t>(wall_ns), t_end);
  if (wall_ns > 0)
    metrics_->gauge("sim.events_per_sec", 0)
        .set(static_cast<std::int64_t>(engine_->events_executed() *
                                       1000000000ull / wall_ns),
             t_end);
  metrics_->gauge("sim.event_queue_hw", 0)
      .set(static_cast<std::int64_t>(engine_->queue_high_water()), t_end);
  const sim::EventPool::Stats& pool = engine_->pool_stats();
  metrics_->gauge("sim.event_pool_live", 0)
      .set(static_cast<std::int64_t>(pool.live), t_end);
  metrics_->gauge("sim.event_pool_capacity", 0)
      .set(static_cast<std::int64_t>(pool.capacity), t_end);
  metrics_->gauge("sim.event_pool_recycled", 0)
      .set(static_cast<std::int64_t>(pool.recycled), t_end);
  metrics_->gauge("sim.event_pool_oversize", 0)
      .set(static_cast<std::int64_t>(pool.oversize), t_end);
  // Queue depth sampled at each pop, merged bucket-wise (the engine cannot
  // link obs, so it records into its own log2 histogram).
  obs::Histogram depth = metrics_->histogram("sim.queue_depth_at_pop", 0);
  const sim::Log2Hist& h = engine_->pop_depth_hist();
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (!h.buckets[i]) continue;
    const std::uint64_t rep = i == 0 ? 0 : (1ull << (i - 1));
    depth.record_multi(rep, h.buckets[i]);
  }
  for (int r = 0; r < engine_->nranks(); ++r) {
    sim::RankCtx& ctx = engine_->rank(r);
    const Time total = ctx.now();
    const Time blocked = ctx.blocked_time();
    metrics_->gauge("sim.total_ns", r)
        .set(static_cast<std::int64_t>(total / kPicosPerNano), total);
    metrics_->gauge("sim.blocked_ns", r)
        .set(static_cast<std::int64_t>(blocked / kPicosPerNano), total);
    metrics_->gauge("sim.busy_ns", r)
        .set(static_cast<std::int64_t>((total - blocked) / kPicosPerNano),
             total);
  }
  // Obs self-cost (ISSUE: obs observes itself): the registry's structural
  // footprint and the journal's depth. Both gauge families are created
  // before the footprint is computed so the estimate includes them; the
  // depth is stamped later, once every journal source has run.
  obs::Gauge reg_bytes = metrics_->gauge("obs.registry_bytes", 0);
  obs::Gauge journal_depth = metrics_->gauge("obs.journal_depth", 0);
  reg_bytes.set(static_cast<std::int64_t>(metrics_->footprint_bytes()),
                t_end);
  // Host-time phase attribution (gauges the flight recorder excludes from
  // its snapshots — see obs/timeseries.cpp — so they never break the
  // bit-determinism of the time-series JSON).
  if (profiler_) profiler_->export_to(*metrics_, t_end);
  // The recorder finalizes *after* every post-run metric write above so the
  // final window's deltas telescope exactly to the narma.metrics.v1 totals.
  if (timeseries_) {
    timeseries_->finalize(t_end);
    if (msgtrace_) {
      std::vector<obs::TimeSeries::ResidualRow> rows = residual_rows();
      if (journal_) {
        // Flagged model residuals become typed journal records: rank -1
        // (backend-scoped), peer = window, payload in picoseconds.
        for (const auto& r : rows) {
          if (!r.flagged) continue;
          journal_->append(
              obs::JournalKind::kResidual, t_end, -1,
              static_cast<std::int32_t>(r.window),
              static_cast<std::uint64_t>(std::max(0.0, r.mean_residual_ps)),
              static_cast<std::uint64_t>(std::max(0.0, r.mean_model_ps)));
        }
      }
      timeseries_->set_residuals(std::move(rows));
    }
  }
  journal_depth.set(
      journal_ ? static_cast<std::int64_t>(journal_->size()) : 0, t_end);
}

std::vector<obs::TimeSeries::ResidualRow> World::residual_rows() const {
  // Group completed traced messages by (window containing t_end, backend)
  // and compare the measured channel stage — queueing + gap + serialization
  // + wire, straight from the hop decomposition — against the single-leg
  // LogGP floor g + G*bytes + L of the lane the backend routes that size
  // to. The residual is nonnegative in a clean run; persistently large
  // means congestion, retries, or multi-leg notification overhead (RAMC's
  // descriptor leg) the base model does not carry.
  std::vector<obs::TimeSeries::ResidualRow> rows;
  const auto& windows = timeseries_->windows();
  if (windows.empty()) return rows;
  struct Acc {
    std::uint64_t msgs = 0;
    double model = 0;
    double resid = 0;
    double max_abs = 0;
  };
  std::map<std::pair<std::uint32_t, std::string>, Acc> groups;
  auto cat = [](const obs::MsgTrace::MsgSummary& m, obs::LatCat c) {
    return static_cast<double>(m.cat[static_cast<std::size_t>(c)]);
  };
  for (const auto& m : msgtrace_->summarize()) {
    if (!m.complete) continue;
    // Window holding the completion time: first window whose end exceeds
    // t_end (the last window absorbs anything at/after its end).
    std::uint32_t wi = 0;
    while (wi + 1 < windows.size() && windows[wi].t_end <= m.t_end) ++wi;
    const net::TransportBackend& be = fabric_->backend_for(m.src, m.dst);
    const net::TransportTiming& tm = be.timing(be.lane(m.bytes));
    const double model = static_cast<double>(tm.L) +
                         static_cast<double>(tm.g) +
                         tm.G_ps_per_byte * static_cast<double>(m.bytes);
    const double measured =
        cat(m, obs::LatCat::kChanQueue) + cat(m, obs::LatCat::kGap) +
        cat(m, obs::LatCat::kSer) + cat(m, obs::LatCat::kWire);
    const double resid = measured - model;
    Acc& acc = groups[{wi, be.name()}];
    ++acc.msgs;
    acc.model += model;
    acc.resid += resid;
    acc.max_abs = std::max(acc.max_abs, std::abs(resid));
  }
  rows.reserve(groups.size());
  for (const auto& [key, acc] : groups) {
    obs::TimeSeries::ResidualRow r;
    r.window = key.first;
    r.backend = key.second;
    r.msgs = acc.msgs;
    r.mean_model_ps = acc.model / static_cast<double>(acc.msgs);
    r.mean_residual_ps = acc.resid / static_cast<double>(acc.msgs);
    r.max_abs_residual_ps = acc.max_abs;
    r.flagged = r.mean_residual_ps >
                params_.obs.residual_threshold * r.mean_model_ps;
    rows.push_back(std::move(r));
  }
  return rows;
}

Rank::Rank(World& world, sim::RankCtx& ctx)
    : world_(world),
      ctx_(ctx),
      nic_(world.fabric().nic(ctx.id())),
      router_(nic_),
      ep_(router_, world.params().mp),
      winmgr_(router_, ep_, world.params().rma),
      na_(router_, world.params().na) {
  if (obs::Registry* reg = world.metrics()) {
    ep_.bind_metrics(*reg);
    winmgr_.bind_metrics(*reg);
    na_.bind_metrics(*reg);
  }
}

}  // namespace narma
