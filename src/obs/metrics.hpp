// Unified runtime metrics: the observability substrate every layer reports
// into (ROADMAP: perf PRs measure against this).
//
// A Registry is a per-World collection of named metric *families*, each with
// one cell per rank:
//
//  * Counter   — monotone event/byte counts (FMA ops, eager sends, ...).
//  * Gauge     — instantaneous levels with high-water tracking (CQ depth,
//                unexpected-queue depth, slab-pool occupancy, ...).
//  * Histogram — log2-bucketed samples (queueing delays, flush waits, match
//                probes per test, ...).
//
// Handles are cheap value types the instrumented layers cache at
// construction: a disengaged handle (metrics off) makes every hook a single
// branch, an engaged one a branch plus a plain increment. Plain (non-atomic)
// arithmetic is correct here because every rank is a fiber on the single
// engine thread, and at most one of them runs at any instant.
//
// When a sim::Tracer is attached, every gauge change is mirrored as a Chrome
// trace-event "C" (counter) sample, so Perfetto shows CQ/UQ depth tracks
// aligned with the span timeline. Counters and histograms are export-only.
//
// Registry::to_json() emits the stable schema consumed by `narma_cli report`
// (see DESIGN.md §7):
//
//   {"schema":"narma.metrics.v1","nranks":N,"metrics":[
//     {"name":...,"kind":"counter","per_rank":[{"rank":0,"value":V},...]},
//     {"name":...,"kind":"gauge","per_rank":[{"rank":0,"value":V,
//      "high_water":H},...]},
//     {"name":...,"kind":"histogram","per_rank":[{"rank":0,"count":N,
//      "sum":S,"min":m,"max":M,"buckets":[{"lo":..,"hi":..,"count":..}]}]}]}
//
// Aggregate mode (ObsParams::obs_mode == ObsMode::kAggregate, DESIGN.md
// §14) replaces the per-rank cells of each family with a fixed number of
// *shard* cells (a rank's updates land in shard rank % shards), a
// deterministic sample of ranks that keep full exact cells, and a bounded
// top-k tracker of the most extreme ranks. Handles stay the same cheap
// value types; the hot path gains one predicted branch in dense mode and
// one compare against the top-k admission floor in aggregate mode.
// Aggregate-mode reductions (sum / count / high-water) are bit-identical
// to reducing the dense cells of the same run, and to_json() emits the
// narma.metrics.v2 schema with {aggregate, outliers, sampled} sections
// per family instead of the per_rank array.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "obs/params.hpp"

namespace narma::sim {
class Tracer;
}

namespace narma::obs {

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Log2-bucketed histogram state. Bucket 0 counts zero-valued samples;
/// bucket i >= 1 counts samples in [2^(i-1), 2^i - 1] (i = bit_width(v)).
struct HistData {
  std::array<std::uint64_t, 64> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  void record(std::uint64_t v);
  /// Records `n` samples of value `v` in O(1) — used to merge pre-bucketed
  /// histograms (e.g. the engine's pop-depth counts) into the registry.
  void record_multi(std::uint64_t v, std::uint64_t n);
  /// Adds `o` into this histogram. Log2 buckets merge exactly: the merged
  /// histogram equals the histogram of the concatenated sample streams,
  /// which is what makes aggregate-mode exports bit-identical reductions.
  void merge(const HistData& o);
  /// Quantile estimate: the value at sorted position q*(count-1), linearly
  /// interpolated within the covering bucket and clamped to the observed
  /// [min, max] — so a one-bucket distribution of equal samples reports the
  /// exact value at every q instead of collapsing to the bucket floor.
  double quantile(double q) const;
  /// Percentile summary derived from the buckets via quantile(). stddev and
  /// ci99 stay 0 — log2 buckets carry no sum of squares.
  stats::Summary summary() const;
};

class Registry;

namespace detail {

/// Per-(family, rank) storage. Stable address for the life of the Registry.
/// In aggregate mode a cell is either a *shard* (rank = -1 - shard index,
/// accumulating every non-sampled rank with rank % shards == shard) or an
/// exact *sampled-rank* cell.
struct Cell {
  Registry* reg = nullptr;
  const std::string* name = nullptr;  // owned by the family
  int rank = 0;
  std::uint64_t count = 0;    // counter
  std::int64_t level = 0;     // gauge
  std::int64_t high_water = 0;
  Time last_set = 0;          // virtual time of the last gauge set()
  bool mirror = true;         // mirror gauge changes into the tracer?
  HistData hist;              // histogram
};

/// Aggregate-mode per-family extremity tracker: the k ranks with the most
/// extreme score, maintained *exactly* in O(k) state. Exactness argument:
/// every tracked score is a per-rank running maximum (counter totals only
/// grow; gauge high-waters and histogram maxima are maxima by definition),
/// so the admission floor — the minimum retained score once k entries are
/// held — is nondecreasing, an evicted rank's true maximum was <= the floor
/// at eviction, and re-admission requires a new value strictly above the
/// current floor. The retained entries are therefore always the true top-k.
/// Counters additionally keep an 8 B/rank running total, and gauges an
/// 8 B/rank current level, so the outlier score, per-rank introspection,
/// and delta updates (Gauge::add) stay exact under sharding — a shard cell
/// is shared, so its level is only ever a last-writer value, never a safe
/// base for read-modify-write.
struct AggFamily {
  struct Entry {
    int rank;
    std::int64_t score;
  };
  std::vector<std::uint64_t> rank_total;  // counters only; else empty
  std::vector<std::int64_t> rank_level;   // gauges only; else empty
  std::vector<Entry> topk;                // unsorted, <= k entries
  std::int64_t floor_ = std::numeric_limits<std::int64_t>::min();
  int k = 0;

  /// Hot path: a single compare against the admission floor.
  void note(int rank, std::int64_t v) {
    if (v > floor_) admit(rank, v);
  }
  void admit(int rank, std::int64_t v);  // cold path (metrics.cpp)
};

}  // namespace detail

/// Monotone event counter handle. Default-constructed handles are no-ops.
/// In aggregate mode the handle also maintains the owning rank's exact
/// running total and feeds it to the family's top-k tracker.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) {
    if (!cell_) return;
    cell_->count += n;
    if (agg_) {
      std::uint64_t& t = agg_->rank_total[static_cast<std::size_t>(rank_)];
      t += n;
      agg_->note(rank_, static_cast<std::int64_t>(t));
    }
  }
  /// Exact in both modes: aggregate handles read the per-rank total.
  std::uint64_t value() const {
    if (agg_) return agg_->rank_total[static_cast<std::size_t>(rank_)];
    return cell_ ? cell_->count : 0;
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(detail::Cell* c, detail::AggFamily* a = nullptr,
                   std::int32_t r = 0)
      : cell_(c), agg_(a), rank_(r) {}
  detail::Cell* cell_ = nullptr;
  detail::AggFamily* agg_ = nullptr;
  std::int32_t rank_ = 0;
};

/// Level gauge handle with high-water tracking. `at` is the virtual time of
/// the change (used for the tracer counter-track sample).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v, Time at);
  /// Delta update. Reads the *owning rank's* level, not the cell's: shard
  /// cells are shared across ranks in aggregate mode, and compounding a
  /// delta onto another rank's level would inflate the shard (and its
  /// high-water) past any real per-rank value.
  void add(std::int64_t d, Time at) {
    if (cell_) set(value() + d, at);
  }
  /// Exact in both modes: aggregate handles read the per-rank level.
  std::int64_t value() const {
    if (agg_ && !agg_->rank_level.empty())
      return agg_->rank_level[static_cast<std::size_t>(rank_)];
    return cell_ ? cell_->level : 0;
  }
  std::int64_t high_water() const { return cell_ ? cell_->high_water : 0; }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(detail::Cell* c, detail::AggFamily* a = nullptr,
                 std::int32_t r = 0)
      : cell_(c), agg_(a), rank_(r) {}
  detail::Cell* cell_ = nullptr;
  detail::AggFamily* agg_ = nullptr;
  std::int32_t rank_ = 0;
};

/// Log2-bucketed histogram handle.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) {
    if (!cell_) return;
    cell_->hist.record(v);
    if (agg_) agg_->note(rank_, static_cast<std::int64_t>(v));
  }
  /// Bulk merge: `n` samples of value `v` in O(1).
  void record_multi(std::uint64_t v, std::uint64_t n) {
    if (!cell_) return;
    cell_->hist.record_multi(v, n);
    if (agg_ && n > 0) agg_->note(rank_, static_cast<std::int64_t>(v));
  }
  void record_time(Time dt) { record(static_cast<std::uint64_t>(to_ns(dt))); }
  const HistData* data() const { return cell_ ? &cell_->hist : nullptr; }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::Cell* c, detail::AggFamily* a = nullptr,
                     std::int32_t r = 0)
      : cell_(c), agg_(a), rank_(r) {}
  detail::Cell* cell_ = nullptr;
  detail::AggFamily* agg_ = nullptr;
  std::int32_t rank_ = 0;
};

/// Per-World metric registry. Dense mode: one exact cell per (family,
/// rank). Aggregate mode: per-family shard cells + exact sampled-rank
/// cells + a top-k outlier tracker (see the header comment).
class Registry {
 public:
  explicit Registry(int nranks, const ObsParams& params = {});
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  int nranks() const { return nranks_; }
  ObsMode mode() const { return params_.obs_mode; }
  /// Shard cells per family in aggregate mode (1 in dense mode).
  int shards() const { return shards_; }
  /// Ranks that keep full exact cells in aggregate mode (empty in dense).
  const std::vector<int>& sampled_ranks() const { return sample_ranks_; }
  /// Rows visit() can emit per family: nranks in dense mode, shards +
  /// sampled in aggregate mode. The flight recorder sizes its baseline
  /// arrays off this.
  int max_rows() const {
    return params_.obs_mode == ObsMode::kDense
               ? nranks_
               : shards_ + static_cast<int>(sample_ranks_.size());
  }

  /// Handle accessors create the family on first use; the kind of an
  /// existing family must match. Handles stay valid for the Registry's life.
  Counter counter(const std::string& name, int rank);
  Gauge gauge(const std::string& name, int rank);
  Histogram histogram(const std::string& name, int rank);

  /// Mirrors gauge changes into `t` as Chrome "C" counter events (one track
  /// per (metric, rank), sampled on change). nullptr detaches.
  void set_tracer(sim::Tracer* t) { tracer_ = t; }
  sim::Tracer* tracer() const { return tracer_; }

  // --- Introspection (tests, exporters) ------------------------------------

  bool has(const std::string& name) const;
  std::vector<std::string> names() const;

  /// Read-only view of one cell, passed to visit(). `rank` is the true
  /// rank for dense/sampled cells and -1 - shard for shard cells; `row` is
  /// a dense per-family index in [0, max_rows()) usable as an array slot
  /// (dense: row == rank; aggregate: shards first, then sampled ranks).
  struct CellView {
    const std::string& name;
    Kind kind;
    int rank;
    int row;
    std::uint64_t count;          // counter
    std::int64_t level;           // gauge
    std::int64_t high_water;      // gauge
    const HistData& hist;         // histogram
  };

  /// Iterates every cell in deterministic (name asc, row asc) order — the
  /// flight recorder's snapshot pass (src/obs/timeseries).
  void visit(const std::function<void(const CellView&)>& fn) const;
  /// Per-rank introspection. In aggregate mode: counter and gauge values
  /// stay exact (per-rank running totals / levels in the AggFamily);
  /// histograms come from the exact sampled cell when `rank` is sampled,
  /// else the covering shard; gauge high-water falls back to the
  /// family-wide high-water for non-sampled ranks (an upper bound on the
  /// rank's own).
  std::uint64_t counter_value(const std::string& name, int rank) const;
  std::int64_t gauge_value(const std::string& name, int rank) const;
  std::int64_t gauge_high_water(const std::string& name, int rank) const;
  const HistData* hist_data(const std::string& name, int rank) const;

  // --- Whole-family reductions (exact in both modes) -----------------------

  /// Sum of a counter family over every rank.
  std::uint64_t aggregate_counter_sum(const std::string& name) const;
  /// Ranks with a nonzero counter total.
  int aggregate_counter_active(const std::string& name) const;
  /// Family-wide gauge high-water (max over ranks).
  std::int64_t aggregate_gauge_hw(const std::string& name) const;
  /// Level of the most recently set cell (last-wins across cells; ties
  /// break toward the later-visited cell). The "current value" a scalar
  /// gauge like sim.run_wall_ns reduces to.
  std::int64_t aggregate_gauge_last(const std::string& name) const;
  /// Merged histogram over every rank.
  HistData aggregate_hist(const std::string& name) const;

  /// The retained top-k outlier ranks of a family, sorted by value
  /// descending then rank ascending. Empty in dense mode.
  struct OutlierView {
    int rank;
    std::int64_t value;
  };
  std::vector<OutlierView> outliers(const std::string& name) const;

  /// Deterministic estimate of the registry's own storage footprint
  /// (cells + aggregate trackers), for the obs.registry_bytes gauge.
  std::size_t footprint_bytes() const;

  /// Renders the stable metrics JSON document: narma.metrics.v1 in dense
  /// mode (families in lexicographic name order, ranks ascending) and
  /// narma.metrics.v2 ({aggregate, outliers, sampled} per family) in
  /// aggregate mode.
  std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  friend class Gauge;

  struct Family {
    std::string name;
    Kind kind = Kind::kCounter;
    // Dense: one cell per rank. Aggregate: one cell per shard.
    std::vector<detail::Cell> cells;  // sized once, never grows
    // Aggregate only: exact cells for the sampled ranks (node-stable map).
    std::map<int, detail::Cell> sampled;
    std::unique_ptr<detail::AggFamily> agg;  // aggregate only
  };

  Family& family(const std::string& name, Kind kind);
  const Family* find(const std::string& name) const;
  const detail::Cell* cell_of(const std::string& name, int rank) const;
  std::string to_json_v1() const;
  std::string to_json_v2() const;

  int nranks_;
  ObsParams params_;
  int shards_ = 1;               // aggregate-mode shard count (pow2)
  std::vector<int> sample_ranks_;  // aggregate-mode sampled ranks, ascending
  // Sorted map: stable pointer per family and deterministic JSON order.
  std::map<std::string, std::unique_ptr<Family>> families_;
  sim::Tracer* tracer_ = nullptr;
};

}  // namespace narma::obs
