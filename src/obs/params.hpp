// Observability-layer parameters.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time.hpp"

namespace narma::obs {

struct ObsParams {
  /// Anomaly-journal ring capacity in records (src/obs/journal); 0 disables
  /// the journal entirely. The ring keeps the most recent records and
  /// counts what it dropped. narma_cli exposes it as --journal-cap.
  std::size_t journal_capacity = 4096;

  /// Master enable for causal message tracing (src/obs/msgtrace). Off by
  /// default: World::enable_msgtrace() flips it before run(), narma_cli
  /// exposes it as --msgtrace=FILE. Recording never advances virtual time,
  /// so instrumented and bare runs are cycle-identical either way.
  bool msgtrace = false;

  /// Sample every Nth injected message per rank (1 = trace everything).
  /// Unsampled messages carry MsgId 0 and cost exactly one branch per hook.
  std::uint64_t msgtrace_sample_every = 1;

  /// Hop records retained per rank (ring buffer; oldest overwritten).
  /// 1<<16 records x 32 B = 2 MiB per rank.
  std::size_t msgtrace_ring_capacity = 1 << 16;

  /// Flight recorder (src/obs/timeseries): windowed snapshots of every
  /// registered metric on a virtual-time cadence. Off by default;
  /// World::enable_timeseries() flips it before run(), narma_cli exposes
  /// it as --timeseries=FILE. Snapshots only *read* registry cells and
  /// rank clocks, so virtual times are bit-identical either way.
  bool timeseries = false;

  /// Snapshot cadence in virtual picoseconds (0 = default 100 us). Window
  /// boundaries land at multiples of this; merged windows telescope.
  Time timeseries_window_ps = 0;

  /// Maximum windows retained. Reaching it merges the oldest half of the
  /// ring pairwise (geometric downsampling): memory stays O(capacity) for
  /// arbitrarily long runs, and telescoping sums are preserved exactly.
  std::size_t timeseries_capacity = 512;

  /// A rank is flagged a straggler in a window when its busy fraction
  /// falls this far (absolute) below the window's median busy fraction.
  double straggler_threshold = 0.25;

  /// A (window, backend) channel is flagged when its mean measured
  /// channel-stage latency exceeds the single-leg LogGP floor by more than
  /// this relative margin.
  double residual_threshold = 0.50;
};

}  // namespace narma::obs
