// Unified runtime metrics: the observability substrate every layer reports
// into (ROADMAP: perf PRs measure against this).
//
// A Registry is a per-World collection of named metric *families*, each with
// one exact value per rank:
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
// When a sim::Tracer is attached, every gauge change of a rank below
// kPerfettoGaugeRankLimit is mirrored as a Chrome trace-event "C" (counter)
// sample, so Perfetto shows CQ/UQ depth tracks aligned with the span
// timeline. Host-time gauges are not mirrored, so the trace of a run is a
// function of virtual time alone. Counters and histograms are export-only.
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
// Storage is one compact column per family, typed by kind and holding an
// exact value for every rank (DESIGN.md §14): counters are 8 B per rank,
// gauges 24 B, histograms one HistData. Handles point straight into the
// column, so a hook is one branch plus a plain store.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace narma::sim {
class Tracer;
}

namespace narma::obs {

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Gauge changes are mirrored into the Perfetto trace only for ranks below
/// this limit: every rank's gauge change emitting a "C" event floods the
/// trace at 4096+ ranks.
inline constexpr int kPerfettoGaugeRankLimit = 1024;

/// Families whose values depend on host wall time (the profiler's
/// obs.phase_* / obs.profile_* gauges, sim.run_wall_ns, sim.events_per_sec).
/// The flight recorder and the trace mirror skip them, so both of those
/// artifacts are bit-identical across same-seed runs; the metrics dump
/// still carries them.
bool is_host_time_family(std::string_view name);

/// Log2-bucketed histogram state. Bucket 0 counts zero-valued samples;
/// bucket i >= 1 counts samples in [2^(i-1), 2^i - 1] (i = bit_width(v)),
/// so bucket 64 holds every sample >= 2^63.
struct HistData {
  std::array<std::uint64_t, 65> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  void record(std::uint64_t v);
  /// Records `n` samples of value `v` in O(1) — used to merge pre-bucketed
  /// histograms (e.g. the engine's pop-depth counts) into the registry.
  void record_multi(std::uint64_t v, std::uint64_t n);
  /// Adds `o` into this histogram. Log2 buckets merge exactly: the merged
  /// histogram equals the histogram of the concatenated sample streams.
  void merge(const HistData& o);
  /// Quantile estimate: the value at sorted position q*(count-1), linearly
  /// interpolated within the covering bucket and clamped to the observed
  /// [min, max] — so a one-bucket distribution of equal samples reports the
  /// exact value at every q instead of collapsing to the bucket floor.
  double quantile(double q) const;
};

/// One rank's gauge state.
struct GaugeCell {
  std::int64_t level = 0;
  std::int64_t high_water = 0;
  Time last_set = 0;  // virtual time of the last set()
};

class Registry;

namespace detail {

/// One metric family: a column with an exact value per rank. Only the
/// column of the family's kind is sized (once, at creation, so handle
/// pointers stay valid); the other two stay empty.
struct Family {
  Registry* reg = nullptr;
  std::string name;
  Kind kind = Kind::kCounter;
  std::vector<std::uint64_t> counts;
  std::vector<GaugeCell> gauges;
  std::vector<HistData> hists;
};

}  // namespace detail

/// Monotone event counter handle. Default-constructed handles are no-ops.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) {
    if (v_) *v_ += n;
  }
  std::uint64_t value() const { return v_ ? *v_ : 0; }
  explicit operator bool() const { return v_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::uint64_t* v) : v_(v) {}
  std::uint64_t* v_ = nullptr;
};

/// Level gauge handle with high-water tracking. `at` is the virtual time of
/// the change (used for the tracer counter-track sample).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v, Time at);
  void add(std::int64_t d, Time at) {
    if (cell_) set(cell_->level + d, at);
  }
  std::int64_t value() const { return cell_ ? cell_->level : 0; }
  std::int64_t high_water() const { return cell_ ? cell_->high_water : 0; }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  Gauge(GaugeCell* c, const detail::Family* f) : cell_(c), fam_(f) {}
  /// Mirrors a changed level into the registry's tracer when the rank is
  /// below kPerfettoGaugeRankLimit and the family is not host-time. Out of
  /// line, and reached only with a tracer attached, so untraced runs never
  /// touch its string-building stack frame.
  void mirror(std::int64_t v, Time at) const;
  GaugeCell* cell_ = nullptr;
  const detail::Family* fam_ = nullptr;  // tracer mirroring: name + rank
};

/// Log2-bucketed histogram handle.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) {
    if (h_) h_->record(v);
  }
  /// Bulk merge: `n` samples of value `v` in O(1).
  void record_multi(std::uint64_t v, std::uint64_t n) {
    if (h_) h_->record_multi(v, n);
  }
  void record_time(Time dt) { record(static_cast<std::uint64_t>(to_ns(dt))); }
  const HistData* data() const { return h_; }
  explicit operator bool() const { return h_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(HistData* h) : h_(h) {}
  HistData* h_ = nullptr;
};

/// Per-World metric registry: one exact per-rank column per family.
class Registry {
 public:
  explicit Registry(int nranks);
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  int nranks() const { return nranks_; }

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

  /// Read-only view of one family's column; only the span of its kind is
  /// non-empty, indexed by rank.
  struct FamilyView {
    const std::string& name;
    Kind kind;
    std::span<const std::uint64_t> counts;
    std::span<const GaugeCell> gauges;
    std::span<const HistData> hists;
  };

  /// Iterates every family in name order — the flight recorder's snapshot
  /// pass (src/obs/timeseries).
  void visit(const std::function<void(const FamilyView&)>& fn) const;
  /// Per-rank introspection; 0 / nullptr for a missing family or rank.
  std::uint64_t counter_value(const std::string& name, int rank) const;
  std::int64_t gauge_value(const std::string& name, int rank) const;
  std::int64_t gauge_high_water(const std::string& name, int rank) const;
  const HistData* hist_data(const std::string& name, int rank) const;

  // --- Whole-family reductions ---------------------------------------------

  /// Sum of a counter family over every rank.
  std::uint64_t aggregate_counter_sum(const std::string& name) const;
  /// Ranks with a nonzero counter total.
  int aggregate_counter_active(const std::string& name) const;
  /// Family-wide gauge high-water (max over ranks).
  std::int64_t aggregate_gauge_hw(const std::string& name) const;
  /// Level of the most recently set rank (last-wins; ties break toward the
  /// higher rank). The "current value" a scalar gauge like sim.run_wall_ns
  /// reduces to.
  std::int64_t aggregate_gauge_last(const std::string& name) const;
  /// Merged histogram over every rank.
  HistData aggregate_hist(const std::string& name) const;

  /// Deterministic estimate of the registry's own storage footprint, for
  /// the obs.registry_bytes gauge.
  std::size_t footprint_bytes() const;

  /// Renders the stable narma.metrics.v1 document (families in
  /// lexicographic name order, ranks ascending).
  std::string to_json() const;

 private:
  detail::Family& family(const std::string& name, Kind kind);
  const detail::Family* find(const std::string& name) const;
  /// The family `name` when it exists, has kind `kind`, and `rank` is in
  /// range; else nullptr.
  const detail::Family* find(const std::string& name, Kind kind,
                             int rank) const;

  int nranks_;
  // Sorted map: stable pointer per family and deterministic JSON order.
  std::map<std::string, std::unique_ptr<detail::Family>> families_;
  sim::Tracer* tracer_ = nullptr;
};

inline void Gauge::set(std::int64_t v, Time at) {
  if (!cell_) return;
  const bool changed = v != cell_->level;
  cell_->level = v;
  cell_->last_set = at;
  if (v > cell_->high_water) cell_->high_water = v;
  if (changed && fam_->reg->tracer()) mirror(v, at);
}

}  // namespace narma::obs
