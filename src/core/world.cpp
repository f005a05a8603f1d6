#include "core/world.hpp"

#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "common/env.hpp"
#include "common/fatal.hpp"
#include "common/file.hpp"

namespace narma {

namespace {

// Crash hook (NARMA_CRASH_DIR): on a fatal error, write the run directory
// this world holds so the failure is diagnosable post-mortem with the same
// readers as a finished run. The recorders are still live; the flight
// recorder's crash window is lost (finalize never ran), but the time axis
// up to the failure survives, and the journal usually holds the most direct
// clue.
void world_crash_dump(void* world) {
  const std::string dir = env::get_string("NARMA_CRASH_DIR", "");
  if (dir.empty()) return;
  const std::string err = static_cast<World*>(world)->write_artifacts(dir);
  if (!err.empty())
    std::fprintf(stderr, "NARMA_CRASH_DIR: cannot write %s\n", err.c_str());
}

}  // namespace

World::World(int nranks, WorldParams params)
    : params_(std::move(params)),
      engine_(std::make_unique<sim::Engine>(nranks, params_.sim)),
      metrics_(params_.obs.metrics ? std::make_unique<obs::Registry>(nranks)
                                   : nullptr),
      fabric_(std::make_unique<net::Fabric>(*engine_, params_.fabric,
                                            metrics_.get())) {
  const obs::ObsParams& op = params_.obs;
  if (op.journal_capacity > 0) {
    journal_ = std::make_unique<obs::Journal>(op.journal_capacity);
    fabric_->set_journal(journal_.get());
  }
  if (op.msgtrace) {
    msgtrace_ = std::make_unique<obs::MsgTrace>(nranks, op);
    fabric_->set_msgtrace(msgtrace_.get());
  }
  if (op.timeseries) {
    NARMA_CHECK(metrics_ != nullptr)
        << "the flight recorder snapshots the metrics registry; enable "
           "ObsParams::metrics";
    timeseries_ = std::make_unique<obs::TimeSeries>(*metrics_, *engine_, op);
    engine_->set_time_probe(
        timeseries_->window(), [this](Time boundary, Time horizon) {
          // The snapshot pass is itself obs work; charge it to the obs
          // phase so the recorder's own overhead shows up in the budget it
          // reports.
          obs::PhaseScope scope(profiler_.get(), obs::Phase::kObs);
          return timeseries_->on_boundary(boundary, horizon);
        });
  }
  if (!env::get_string("NARMA_CRASH_DIR", "").empty())
    register_crash_hook(&world_crash_dump, this);
}

void World::enable_profiling() {
  if (profiler_) return;
  profiler_ = std::make_unique<obs::Profiler>();
  engine_->set_profiler(profiler_.get());
  fabric_->set_profiler(profiler_.get());
  if (msgtrace_) msgtrace_->set_profiler(profiler_.get());
}

std::string World::write_artifacts(const std::string& dir) const {
  std::string err = file::make_dirs(dir);
  auto write = [&](const char* name, const auto& recorder,
                   const auto&... args) {
    if (err.empty() && recorder)
      err = file::write(dir + "/" + name, recorder->to_json(args...));
  };
  // msgtrace.json records the lane table and each message's lane; the
  // shm/FMA/BTE rule stays Fabric::transport_for's.
  obs::MsgTrace::FabricLanes lanes;
  for (int t = 0; t < net::kNumTransports; ++t) {
    const auto lane = static_cast<net::Transport>(t);
    const net::TransportTiming& tm = fabric_->timing(lane);
    lanes.rows.push_back({net::to_string(lane), tm.L, tm.g, tm.G_ps_per_byte});
  }
  lanes.of = [this](int src, int dst, std::uint32_t bytes) {
    return static_cast<std::size_t>(fabric_->transport_for(src, dst, bytes));
  };
  write(obs::kMetricsFile, metrics_);
  write(obs::kJournalFile, journal_);
  write(obs::kMsgtraceFile, msgtrace_, lanes);
  write(obs::kTimeseriesFile, timeseries_);
  return err;
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
  // depth is stamped last, after the recorder's final window.
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
  if (timeseries_) timeseries_->finalize(t_end);
  journal_depth.set(
      journal_ ? static_cast<std::int64_t>(journal_->size()) : 0, t_end);
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
