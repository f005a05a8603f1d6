#include "obs/timeseries.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"
#include "common/json.hpp"
#include "sim/engine.hpp"

namespace narma::obs {

TimeSeries::TimeSeries(Registry& reg, sim::Engine& eng,
                       const ObsParams& params)
    : reg_(reg),
      eng_(eng),
      window_ps_(params.timeseries_window_ps ? params.timeseries_window_ps
                                             : us(100)),
      capacity_(params.timeseries_capacity) {
  NARMA_CHECK(window_ps_ > 0);
  NARMA_CHECK(capacity_ >= 4) << "flight recorder needs >= 4 windows";
  const int nranks = eng.nranks();
  const int nrec = std::min(nranks, kMaxRecordedRanks);
  for (int i = 0; i < nrec; ++i)
    recorded_.push_back(static_cast<int>(
        static_cast<std::int64_t>(i) * nranks / nrec));
  rank_base_.resize(static_cast<std::size_t>(nranks));
}

std::uint32_t TimeSeries::family_index(const std::string& name, Kind kind) {
  auto it = family_idx_.find(name);
  if (it != family_idx_.end()) return it->second;
  const auto idx = static_cast<std::uint32_t>(families_.size());
  families_.push_back(FamilyInfo{name, kind});
  family_idx_.emplace(name, idx);
  base_.emplace_back(recorded_.size());
  return idx;
}

void TimeSeries::snapshot(Time boundary) {
  ++snapshots_;
  Window w;
  w.t_begin = last_boundary_;
  w.t_end = boundary;
  w.ranks.resize(recorded_.size());
  const int nranks = eng_.nranks();
  // Busy fractions of every rank that advanced: the rank_agg summary
  // ranges over all ranks.
  std::vector<double> fracs;
  fracs.reserve(static_cast<std::size_t>(nranks));
  double min_busy = 2.0;
  std::int32_t min_rank = -1;
  std::size_t ri = 0;  // walks recorded_ (ascending) alongside r
  for (int r = 0; r < nranks; ++r) {
    sim::RankCtx& ctx = eng_.rank(r);
    const Time total = ctx.now();
    const Time blocked = ctx.blocked_time();
    auto& abs = rank_base_[static_cast<std::size_t>(r)];  // absolute totals
    const RankDelta d{total - abs.d_total, blocked - abs.d_blocked};
    abs = {total, blocked};
    if (ri < recorded_.size() && recorded_[ri] == r) w.ranks[ri++] = d;
    w.agg.d_total_sum += d.d_total;
    w.agg.d_blocked_sum += d.d_blocked;
    if (d.d_total <= 0) continue;
    ++w.agg.active;
    const double f = static_cast<double>(d.d_total - d.d_blocked) /
                     static_cast<double>(d.d_total);
    fracs.push_back(f);
    if (f < min_busy) {
      min_busy = f;
      min_rank = r;
    }
  }
  if (fracs.size() >= 2) {
    std::sort(fracs.begin(), fracs.end());
    const double median = fracs[fracs.size() / 2];
    w.agg.median_busy = median;
    w.agg.min_busy = min_busy;
    w.agg.min_rank = min_rank;
    for (double f : fracs)
      if (f < median - kStragglerThreshold) ++w.agg.stragglers;
  }
  reg_.visit([&](const Registry::FamilyView& f) {
    if (is_host_time_family(f.name)) return;
    const std::uint32_t idx = family_index(f.name, f.kind);
    std::vector<CellBase>& bases = base_[idx];
    for (std::size_t i = 0; i < recorded_.size(); ++i) {
      const auto r = static_cast<std::size_t>(recorded_[i]);
      const auto rank = static_cast<std::int32_t>(recorded_[i]);
      CellBase& base = bases[i];
      switch (f.kind) {
        case Kind::kCounter:
          if (f.counts[r] != base.count) {
            w.cells.push_back({idx, rank, f.counts[r] - base.count, 0});
            base.count = f.counts[r];
          }
          break;
        case Kind::kGauge: {
          const GaugeCell& g = f.gauges[r];
          if (g.level != base.level || g.high_water != base.hw) {
            w.cells.push_back({idx, rank, static_cast<std::uint64_t>(g.level),
                               static_cast<std::uint64_t>(g.high_water)});
            base.level = g.level;
            base.hw = g.high_water;
          }
          break;
        }
        case Kind::kHistogram: {
          const HistData& h = f.hists[r];
          const std::uint64_t dc = h.count - base.hcount;
          const std::uint64_t ds = h.sum - base.hsum;
          if (dc != 0 || ds != 0) {
            w.cells.push_back({idx, rank, dc, ds});
            base.hcount = h.count;
            base.hsum = h.sum;
          }
          break;
        }
      }
    }
  });
  windows_.push_back(std::move(w));
  last_boundary_ = boundary;
  if (windows_.size() >= capacity_) merge_down();
}

Time TimeSeries::on_boundary(Time boundary, Time /*horizon*/) {
  if (finalized_) return std::numeric_limits<Time>::max();
  snapshot(boundary);
  return boundary + window_ps_;
}

void TimeSeries::finalize(Time t_end) {
  if (finalized_) return;
  snapshot(std::max(t_end, last_boundary_));
  finalized_ = true;
}

TimeSeries::Window TimeSeries::merge(Window&& a, Window&& b) const {
  Window m;
  m.t_begin = a.t_begin;
  m.t_end = b.t_end;
  m.merged = a.merged + b.merged;
  m.ranks.resize(a.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r)
    m.ranks[r] = {a.ranks[r].d_total + b.ranks[r].d_total,
                  a.ranks[r].d_blocked + b.ranks[r].d_blocked};
  m.agg.d_total_sum = a.agg.d_total_sum + b.agg.d_total_sum;
  m.agg.d_blocked_sum = a.agg.d_blocked_sum + b.agg.d_blocked_sum;
  m.agg.active = std::max(a.agg.active, b.agg.active);
  m.agg.stragglers = a.agg.stragglers + b.agg.stragglers;
  // Weighted-average median: approximate but deterministic; the exact
  // per-window medians are gone once their windows merge.
  const double wa = static_cast<double>(a.merged);
  const double wb = static_cast<double>(b.merged);
  m.agg.median_busy =
      (a.agg.median_busy * wa + b.agg.median_busy * wb) / (wa + wb);
  if (b.agg.min_rank < 0 ||
      (a.agg.min_rank >= 0 && a.agg.min_busy <= b.agg.min_busy)) {
    m.agg.min_busy = a.agg.min_busy;
    m.agg.min_rank = a.agg.min_rank;
  } else {
    m.agg.min_busy = b.agg.min_busy;
    m.agg.min_rank = b.agg.min_rank;
  }
  // Combine by (family, rank): counters/histograms sum, gauges take the
  // later window's value (last-wins, matching the snapshot semantics).
  std::map<std::uint64_t, CellDelta> cells;
  auto key = [](const CellDelta& c) {
    return (static_cast<std::uint64_t>(c.family) << 32) |
           static_cast<std::uint32_t>(c.rank);
  };
  for (CellDelta& c : a.cells) cells.emplace(key(c), c);
  for (CellDelta& c : b.cells) {
    auto [it, fresh] = cells.emplace(key(c), c);
    if (fresh) continue;
    switch (families_[c.family].kind) {
      case Kind::kCounter:
      case Kind::kHistogram:
        it->second.a += c.a;
        it->second.b += c.b;
        break;
      case Kind::kGauge:
        it->second = c;
        break;
    }
  }
  m.cells.reserve(cells.size());
  for (auto& [k, c] : cells) m.cells.push_back(c);
  return m;
}

void TimeSeries::merge_down() {
  ++merges_;
  const std::size_t half = windows_.size() / 2;
  std::vector<Window> next;
  next.reserve(windows_.size() - half / 2);
  std::size_t i = 0;
  for (; i + 1 < half; i += 2)
    next.push_back(merge(std::move(windows_[i]), std::move(windows_[i + 1])));
  for (; i < windows_.size(); ++i) next.push_back(std::move(windows_[i]));
  windows_ = std::move(next);
}

std::string TimeSeries::to_json() const {
  json::Writer w;
  w.begin_object();
  w.kv("schema", "narma.timeseries.v1");
  w.kv("nranks", eng_.nranks());
  w.kv("window_ps", static_cast<std::uint64_t>(window_ps_));
  w.kv("capacity", static_cast<std::uint64_t>(capacity_));
  w.kv("snapshots", snapshots_);
  w.kv("merges", merges_);
  w.key("families").begin_array();
  for (const FamilyInfo& f : families_) {
    w.begin_object();
    w.kv("name", f.name);
    w.kv("kind", to_string(f.kind));
    w.end_object();
  }
  w.end_array();
  w.key("windows").begin_array();
  for (const Window& win : windows_) {
    w.begin_object();
    w.kv("t_begin_ps", static_cast<std::uint64_t>(win.t_begin));
    w.kv("t_end_ps", static_cast<std::uint64_t>(win.t_end));
    w.kv("merged", static_cast<std::uint64_t>(win.merged));
    w.key("rank_agg").begin_object();
    w.kv("total_ps_sum", static_cast<std::uint64_t>(win.agg.d_total_sum));
    w.kv("blocked_ps_sum", static_cast<std::uint64_t>(win.agg.d_blocked_sum));
    w.kv("busy_ps_sum", static_cast<std::uint64_t>(win.agg.d_total_sum -
                                                   win.agg.d_blocked_sum));
    w.kv("active", static_cast<std::uint64_t>(win.agg.active));
    w.kv("stragglers", static_cast<std::uint64_t>(win.agg.stragglers));
    w.kv("median_busy", win.agg.median_busy);
    w.kv("min_busy", win.agg.min_rank >= 0 ? win.agg.min_busy : 0.0);
    w.kv("min_rank", static_cast<int>(win.agg.min_rank));
    w.end_object();
    w.key("ranks").begin_array();
    for (std::size_t i = 0; i < win.ranks.size(); ++i) {
      const RankDelta& d = win.ranks[i];
      w.begin_object();
      w.kv("rank", recorded_[i]);
      w.kv("total_ps", static_cast<std::uint64_t>(d.d_total));
      w.kv("blocked_ps", static_cast<std::uint64_t>(d.d_blocked));
      w.kv("busy_ps", static_cast<std::uint64_t>(d.d_total - d.d_blocked));
      w.end_object();
    }
    w.end_array();
    w.key("cells").begin_array();
    for (const CellDelta& c : win.cells) {
      w.begin_object();
      w.kv("family", static_cast<std::uint64_t>(c.family));
      w.kv("rank", static_cast<int>(c.rank));
      switch (families_[c.family].kind) {
        case Kind::kCounter:
          w.kv("delta", c.a);
          break;
        case Kind::kGauge:
          w.kv("value", static_cast<std::int64_t>(c.a));
          w.kv("high_water", static_cast<std::int64_t>(c.b));
          break;
        case Kind::kHistogram:
          w.kv("delta_count", c.a);
          w.kv("delta_sum", c.b);
          break;
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace narma::obs
