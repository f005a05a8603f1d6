// Observability-layer parameters: the one switchboard for every recorder.
//
// World builds each recorder at construction from these fields and nowhere
// else; World::write_artifacts(dir) then writes one file per recorder it
// holds, under the fixed names below. No recorder advances virtual time, so
// every switch leaves a run's virtual times bit-identical. The host-time
// profiler is the one exception to "switch here": it reads host clocks only
// and is turned on with World::enable_profiling().
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time.hpp"

namespace narma::obs {

/// The file names of a run directory, one per recorder (DESIGN.md §7).
/// World::write_artifacts writes them and `narma_cli report|critpath|
/// timeline|diff DIR` reads them.
inline constexpr const char* kMetricsFile = "metrics.json";
inline constexpr const char* kJournalFile = "journal.json";
inline constexpr const char* kTraceFile = "trace.json";
inline constexpr const char* kMsgtraceFile = "msgtrace.json";
inline constexpr const char* kTimeseriesFile = "timeseries.json";

struct ObsParams {
  /// Metrics registry (src/obs/metrics), written as metrics.json. On by
  /// default: every hook is one branch plus a plain add on the rank's own
  /// cell. The flight recorder snapshots it, so `timeseries` needs it.
  bool metrics = true;

  /// Anomaly-journal ring capacity in records (src/obs/journal), written as
  /// journal.json; 0 disables the journal entirely. The ring keeps the most
  /// recent records and counts what it dropped. narma_cli: --journal-cap.
  std::size_t journal_capacity = 4096;

  /// Virtual-time Chrome trace (src/sim/trace), written as trace.json. Off
  /// by default; with metrics on, gauge changes also appear as Perfetto
  /// counter tracks. narma_cli: --trace.
  bool trace = false;

  /// Causal message tracing (src/obs/msgtrace), written as msgtrace.json.
  /// Off by default. narma_cli: --msgtrace.
  bool msgtrace = false;

  /// Sample every Nth injected message per rank (1 = trace everything).
  /// Unsampled messages carry MsgId 0 and cost exactly one branch per hook.
  /// narma_cli: --msgtrace-sample.
  std::uint64_t msgtrace_sample_every = 1;

  /// Hop records retained per rank (ring buffer; oldest overwritten).
  /// 1<<16 records x 32 B = 2 MiB per rank.
  std::size_t msgtrace_ring_capacity = 1 << 16;

  /// Flight recorder (src/obs/timeseries), written as timeseries.json:
  /// windowed snapshots of every registered metric on a virtual-time
  /// cadence. Off by default; needs `metrics`. narma_cli: --timeseries.
  bool timeseries = false;

  /// Snapshot cadence in virtual picoseconds (0 = default 100 us). Window
  /// boundaries land at multiples of this; merged windows telescope.
  /// narma_cli: --timeseries-window-us.
  Time timeseries_window_ps = 0;

  /// Maximum windows retained. Reaching it merges the oldest half of the
  /// ring pairwise (geometric downsampling): memory stays O(capacity) for
  /// arbitrarily long runs, and telescoping sums are preserved exactly.
  std::size_t timeseries_capacity = 512;
};

}  // namespace narma::obs
