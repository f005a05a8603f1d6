// Flight recorder: windowed time-series snapshots of every registered
// metric, with geometric downsampling (DESIGN.md §12).
//
// End-of-run dumps (narma.metrics.v1, narma.msgtrace.v1) answer "what
// happened in total"; the flight recorder answers "when". On a configurable
// virtual-time cadence the engine's scheduler loop invokes the recorder's
// time probe (Engine::set_time_probe) *between* dispatches, and the
// recorder captures, for every *recorded* rank, the delta of each metric
// cell since the previous boundary into a bounded ring of windows:
//
//   counter    delta of the count
//   gauge      value and high-water at the boundary (last-wins on merge)
//   histogram  delta of (count, sum)
//
// plus each recorded rank's busy/blocked virtual-time split, and one
// `rank_agg` summary over *all* ranks (busy/blocked sums, active count,
// median and minimum busy fraction, straggler count). Every rank is
// recorded up to kMaxRecordedRanks ranks; past that, kMaxRecordedRanks
// evenly spaced ranks starting at 0, so a window costs O(1) cells at any
// scale. Only changed cells are stored, so quiet windows are near-free.
//
// When the ring reaches capacity, the *oldest half* is merged pairwise —
// counters and histograms sum, gauges keep the later value, spans
// concatenate — halving its resolution while leaving the recent past at
// full cadence. Memory therefore stays O(capacity) for arbitrarily long
// runs, and every merge preserves the invariant the tests assert: summing
// any recorded (family, rank) counter or histogram across all windows
// telescopes exactly to its end-of-run narma.metrics.v1 value, and the
// rank_agg sums telescope to the ranks' final clocks (World::run finalizes
// the recorder *after* the post-run metric accounting precisely so this
// holds).
//
// Determinism: snapshots only read registry cells and rank clocks — never
// post events, never advance a clock — so runs are bit-identical with the
// recorder on or off, and the exported JSON is bit-identical across
// repeated runs. Host-measured families (obs.phase_*, obs.profile_*,
// sim.run_wall_ns, sim.events_per_sec) are excluded from snapshots to keep
// that true; they live in the metrics dump only.
//
// The recorder records; `narma_cli timeline` (obs::timeline) flags. It
// reads the windows back and flags stragglers among the recorded ranks
// (busy fraction below their window median by more than
// kStragglerThreshold) and, with msgtrace.json beside it, the LogGP
// residual of each (window, backend) channel. The one flag counted here is
// `rank_agg.stragglers`, over all ranks: past kMaxRecordedRanks the
// document does not hold every rank's busy fraction.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "obs/params.hpp"

namespace narma::sim {
class Engine;
}

namespace narma::obs {

class TimeSeries {
 public:
  /// Ranks with per-rank rows (`ranks`, `cells`) in every window.
  static constexpr int kMaxRecordedRanks = 64;

  /// A rank is a straggler in a window when its busy fraction falls this
  /// far (absolute) below the window's median busy fraction: the rule of
  /// `rank_agg.stragglers` and of timeline's straggler rows.
  static constexpr double kStragglerThreshold = 0.25;

  /// Per-rank virtual-time advance inside one window.
  struct RankDelta {
    Time d_total = 0;
    Time d_blocked = 0;
  };

  /// One changed metric cell. Meaning of (a, b) by family kind:
  /// counter: (delta count, 0); gauge: (level, high_water) at the window
  /// end (int64 bit-cast); histogram: (delta count, delta sum).
  struct CellDelta {
    std::uint32_t family = 0;
    std::int32_t rank = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };

  /// Per-window summary over every rank. median/min are computed at
  /// snapshot time; merged windows carry a merged-count-weighted average
  /// median (documented approximation — sums and counts stay exact).
  struct RankAgg {
    Time d_total_sum = 0;
    Time d_blocked_sum = 0;
    std::uint32_t active = 0;      // ranks that advanced in this window
    std::uint32_t stragglers = 0;  // active ranks below median - threshold
    double median_busy = 0;
    double min_busy = 0;
    std::int32_t min_rank = -1;    // rank with the lowest busy fraction
  };

  struct Window {
    Time t_begin = 0;
    Time t_end = 0;
    std::uint32_t merged = 1;  // raw snapshots folded into this window
    RankAgg agg;
    std::vector<RankDelta> ranks;  // parallel to recorded_ranks()
    std::vector<CellDelta> cells;  // recorded ranks only
  };

  struct FamilyInfo {
    std::string name;
    Kind kind = Kind::kCounter;
  };

  TimeSeries(Registry& reg, sim::Engine& eng, const ObsParams& params);
  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  Time window() const { return window_ps_; }
  std::size_t capacity() const { return capacity_; }

  /// Engine time-probe entry point: snapshot at `boundary`, return the next
  /// due boundary. `horizon` is the virtual time of the next dispatch.
  Time on_boundary(Time boundary, Time horizon);

  /// Captures the final (partial) window at `t_end`. Called by World::run
  /// after the post-run metric accounting so the last window includes it.
  void finalize(Time t_end);

  // --- Introspection --------------------------------------------------------

  /// Ranks carrying per-rank rows, ascending: every rank up to
  /// kMaxRecordedRanks, else kMaxRecordedRanks evenly spaced from 0.
  const std::vector<int>& recorded_ranks() const { return recorded_; }
  std::uint64_t snapshots() const { return snapshots_; }
  std::uint64_t merges() const { return merges_; }
  const std::vector<Window>& windows() const { return windows_; }
  const std::vector<FamilyInfo>& families() const { return families_; }

  /// narma.timeseries.v1 document; all times integer picoseconds.
  std::string to_json() const;

 private:
  struct CellBase {
    std::uint64_t count = 0;   // counter
    std::int64_t level = 0;    // gauge
    std::int64_t hw = 0;       // gauge high-water
    std::uint64_t hcount = 0;  // histogram
    std::uint64_t hsum = 0;    // histogram
  };

  void snapshot(Time boundary);
  void merge_down();
  Window merge(Window&& a, Window&& b) const;
  std::uint32_t family_index(const std::string& name, Kind kind);

  Registry& reg_;
  sim::Engine& eng_;
  Time window_ps_;
  std::size_t capacity_;

  Time last_boundary_ = 0;
  std::vector<FamilyInfo> families_;
  std::map<std::string, std::uint32_t> family_idx_;
  std::vector<int> recorded_;
  std::vector<std::vector<CellBase>> base_;  // [family][recorded index]
  std::vector<RankDelta> rank_base_;         // absolute totals, every rank
  std::vector<Window> windows_;
  std::uint64_t snapshots_ = 0;
  std::uint64_t merges_ = 0;
  bool finalized_ = false;
};

}  // namespace narma::obs
