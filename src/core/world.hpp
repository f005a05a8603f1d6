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
#include <string>

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
  /// Simulator-core knobs (calendar sizing, fiber stack size). World uses
  /// these params exactly as given: no environment variable overrides any
  /// field.
  sim::SimParams sim;
  net::FabricParams fabric;
  mp::MpParams mp;
  rma::RmaParams rma;
  na::NaParams na;

  /// The observability switchboard: which recorders World builds at
  /// construction (metrics and journal on by default; msgtrace and the
  /// flight recorder off) and their knobs. Recorders only read clocks
  /// and state, so virtual times are bit-identical whatever is switched on.
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

  // --- Observability (recorders switched by WorldParams::obs) -------------

  /// Each accessor is nullptr when its recorder is switched off.
  obs::Registry* metrics() { return metrics_.get(); }
  obs::Journal* journal() { return journal_.get(); }
  obs::MsgTrace* msgtrace() { return msgtrace_.get(); }
  obs::TimeSeries* timeseries() { return timeseries_.get(); }
  obs::Profiler* profiler() { return profiler_.get(); }

  /// Turns on phase-attributed host profiling (call before run()). The
  /// profiler reads host clocks only — virtual times are unchanged; its
  /// results are exported as obs.phase_* / obs.profile_* gauges after the
  /// run and surfaced by `narma_cli report`.
  void enable_profiling();

  /// Writes the run directory: creates `dir` if missing, then writes
  /// metrics.json, journal.json, msgtrace.json and timeseries.json
  /// (obs::k*File), one for each recorder this World holds. Returns "" on
  /// success, else a diagnostic naming the first path that could not be
  /// written. Also the crash hook's writer ($NARMA_CRASH_DIR).
  std::string write_artifacts(const std::string& dir) const;

 private:
  WorldParams params_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<obs::Registry> metrics_;  // before fabric_: Nics bind here
  std::unique_ptr<net::Fabric> fabric_;
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
