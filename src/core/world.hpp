// The user-facing runtime facade.
//
// World configures and runs a simulated machine; Rank is the per-rank handle
// user code receives, bundling the whole stack: the two-sided endpoint, the
// one-sided window manager, and the Notified Access engine — roughly what a
// linked foMPI-NA gives an MPI process, minus the MPI_ prefixes.
//
//   narma::World world(8);
//   world.run([](narma::Rank& self) {
//     auto win = self.win_allocate(1024);
//     if (self.id() == 0) {
//       self.na().put_notify(*win, data, 64, /*target=*/1, /*disp=*/0, 7);
//       win->flush(1);
//     } else if (self.id() == 1) {
//       auto req = self.na().notify_init(*win, 0, 7, 1);
//       self.na().start(req);
//       self.na().wait(req);
//     }
//   });
#pragma once

#include <functional>
#include <memory>

#include "core/notify.hpp"
#include "mp/collectives.hpp"
#include "mp/endpoint.hpp"
#include "net/fabric.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/msgtrace.hpp"
#include "obs/params.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "rma/window.hpp"
#include "sim/engine.hpp"

namespace narma {

struct WorldParams {
  /// Simulator-core knobs (calendar sizing, fiber stack size; the
  /// environment variable NARMA_STACK_KB overrides `sim.stack_bytes` at
  /// World construction).
  sim::SimParams sim;
  net::FabricParams fabric;
  mp::MpParams mp;
  rma::RmaParams rma;
  na::NaParams na;

  /// Metrics registry (src/obs). On by default: every hook is one branch
  /// plus a plain add on the rank's own cell, and metric reads never
  /// advance virtual time, so timing results are identical either way.
  bool enable_metrics = true;

  /// Causal message tracing (src/obs/msgtrace). Off by default; flip
  /// `obs.msgtrace = true` (or call World::enable_msgtrace()) to record
  /// per-message lifecycle hops. Hooks only read clocks, so virtual times
  /// are bit-identical with tracing on or off.
  obs::ObsParams obs;

  /// Convenience preset: all ranks on one node (shared-memory transport),
  /// as in the paper's intra-node experiments (Fig. 3c).
  static WorldParams single_node(int nranks) {
    WorldParams p;
    p.fabric.ranks_per_node = nranks;
    return p;
  }
};

class Rank;

class World {
 public:
  explicit World(int nranks, WorldParams params = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs `rank_main` on every rank to completion (blocking).
  void run(const std::function<void(Rank&)>& rank_main);

  sim::Engine& engine() { return *engine_; }
  net::Fabric& fabric() { return *fabric_; }
  const WorldParams& params() const { return params_; }

  /// Turns on virtual-time tracing (call before run()). The trace can be
  /// inspected with tracer() or written with dump_trace(). With metrics
  /// enabled, gauge changes also appear as Perfetto counter tracks.
  void enable_tracing() {
    if (!tracer_)
      tracer_ = std::make_unique<sim::Tracer>(engine_->nranks());
    fabric_->set_tracer(tracer_.get());
    if (metrics_) metrics_->set_tracer(tracer_.get());
  }
  sim::Tracer* tracer() { return tracer_.get(); }
  /// Writes the Chrome trace-event JSON (chrome://tracing / Perfetto).
  bool dump_trace(const std::string& path) const {
    return tracer_ && tracer_->write_json(path);
  }

  /// The metrics registry; nullptr when WorldParams::enable_metrics is off.
  obs::Registry* metrics() { return metrics_.get(); }
  /// Writes the narma.metrics.v1 JSON dump (see DESIGN.md Sec. 7); false
  /// when metrics are disabled or the file cannot be written.
  bool dump_metrics(const std::string& path) const {
    return metrics_ && metrics_->write_json(path);
  }

  /// Turns on causal message tracing (call before run()). `sample_every`
  /// overrides ObsParams::msgtrace_sample_every when nonzero (1 = trace
  /// every message).
  void enable_msgtrace(std::uint64_t sample_every = 0) {
    if (sample_every) params_.obs.msgtrace_sample_every = sample_every;
    params_.obs.msgtrace = true;
    if (!msgtrace_)
      msgtrace_ = std::make_unique<obs::MsgTrace>(engine_->nranks(),
                                                  params_.obs);
    if (profiler_) msgtrace_->set_profiler(profiler_.get());
    fabric_->set_msgtrace(msgtrace_.get());
  }
  obs::MsgTrace* msgtrace() { return msgtrace_.get(); }
  /// Writes the narma.msgtrace.v1 JSON dump (see DESIGN.md Sec. 9); false
  /// when msgtrace is disabled or the file cannot be written.
  bool dump_msgtrace(const std::string& path) const {
    return msgtrace_ && msgtrace_->write_json(path);
  }

  /// Turns on the flight recorder (call before run(); requires metrics).
  /// `window_ps` overrides ObsParams::timeseries_window_ps when nonzero.
  /// Snapshots only read state, so virtual times are bit-identical with
  /// the recorder on or off (DESIGN.md §12).
  void enable_timeseries(Time window_ps = 0);
  obs::TimeSeries* timeseries() { return timeseries_.get(); }
  /// Writes the narma.timeseries.v1 JSON dump; false when the recorder is
  /// disabled or the file cannot be written.
  bool dump_timeseries(const std::string& path) const {
    return timeseries_ && timeseries_->write_json(path);
  }

  /// The anomaly journal (src/obs/journal); created at construction when
  /// ObsParams::journal_capacity > 0 and fed by the fault injector, NIC
  /// backpressure, and the flight-recorder monitors.
  obs::Journal* journal() { return journal_.get(); }
  /// Writes the narma.journal.v1 JSON dump; false when the journal is
  /// disabled or the file cannot be written.
  bool dump_journal(const std::string& path) const {
    return journal_ && journal_->write_json(path);
  }

  /// Turns on phase-attributed host profiling (call before run()). The
  /// profiler reads host clocks only — virtual times are unchanged; its
  /// results are exported as obs.phase_* / obs.profile_* gauges after the
  /// run and surfaced by `narma_cli report`.
  void enable_profiling();
  obs::Profiler* profiler() { return profiler_.get(); }

 private:
  /// Per-(window, backend) measured-vs-LogGP residual rows from the
  /// msgtrace summaries; fed to the recorder after finalize.
  std::vector<obs::TimeSeries::ResidualRow> residual_rows() const;

  WorldParams params_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<obs::Registry> metrics_;  // before fabric_: Nics bind here
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<sim::Tracer> tracer_;
  std::unique_ptr<obs::MsgTrace> msgtrace_;
  std::unique_ptr<obs::TimeSeries> timeseries_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<obs::Journal> journal_;
};

/// Per-rank handle. Constructed by World::run on the rank's own fiber;
/// not copyable or movable; pass by reference.
class Rank {
 public:
  Rank(World& world, sim::RankCtx& ctx);
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  // --- Identity & virtual time ---------------------------------------------

  int id() const { return ctx_.id(); }
  int size() const { return ctx_.nranks(); }
  Time now() const { return ctx_.now(); }
  double now_us() const { return to_us(ctx_.now()); }

  /// Charges `dt` of local compute to virtual time.
  void compute(Time dt) { ctx_.advance(dt); }

  /// Runs `fn` on the real CPU and charges its measured wall time.
  template <class F>
  void compute_measured(F&& fn, double scale = 1.0) {
    ctx_.charge_measured(std::forward<F>(fn), scale);
  }

  void barrier() { mp::barrier(ep_); }

  // --- Subsystems -------------------------------------------------------------

  sim::RankCtx& ctx() { return ctx_; }
  net::Nic& nic() { return nic_; }
  net::MsgRouter& router() { return router_; }
  mp::Endpoint& mp() { return ep_; }
  rma::WinManager& rma() { return winmgr_; }
  na::NaEngine& na() { return na_; }
  World& world() { return world_; }

  // --- Convenience -------------------------------------------------------------

  /// Collective window allocation (all ranks, same order, same disp_unit).
  std::unique_ptr<rma::Window> win_allocate(std::size_t bytes,
                                            std::size_t disp_unit = 1) {
    return winmgr_.allocate(bytes, disp_unit);
  }

  void send(const void* buf, std::size_t bytes, int dst, int tag) {
    ep_.send(buf, bytes, dst, tag);
  }
  void recv(void* buf, std::size_t bytes, int src, int tag,
            mp::Status* st = nullptr) {
    ep_.recv(buf, bytes, src, tag, st);
  }

 private:
  World& world_;
  sim::RankCtx& ctx_;
  net::Nic& nic_;
  net::MsgRouter router_;
  mp::Endpoint ep_;
  rma::WinManager winmgr_;
  na::NaEngine na_;
};

}  // namespace narma
