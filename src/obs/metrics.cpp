#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/assert.hpp"
#include "sim/trace.hpp"

namespace narma::obs {

// -------------------------------------------------------------- HistData --

void HistData::record(std::uint64_t v) {
  const auto idx = static_cast<std::size_t>(std::bit_width(v));
  ++buckets[idx];
  ++count;
  sum += v;
  if (count == 1 || v < min) min = v;
  if (v > max) max = v;
}

void HistData::record_multi(std::uint64_t v, std::uint64_t n) {
  if (n == 0) return;
  buckets[static_cast<std::size_t>(std::bit_width(v))] += n;
  const bool first = count == 0;
  count += n;
  sum += v * n;
  if (first || v < min) min = v;
  if (v > max) max = v;
}

void HistData::merge(const HistData& o) {
  if (o.count == 0) return;
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
  const bool first = count == 0;
  count += o.count;
  sum += o.sum;
  if (first || o.min < min) min = o.min;
  if (o.max > max) max = o.max;
}

double HistData::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank-based: the sample at sorted position q*(count-1), linearly
  // interpolated across the covering bucket's span. The span is clamped to
  // the observed extrema where they apply (min lies in the lowest non-empty
  // bucket, max in the highest), so a distribution confined to one bucket
  // reports exact values instead of the bucket floor or midpoint.
  const double pos = q * static_cast<double>(count - 1);
  double seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double cnt = static_cast<double>(buckets[i]);
    if (pos < seen + cnt) {
      double lo = i == 0 ? 0.0 : std::exp2(static_cast<double>(i) - 1.0);
      double hi = i == 0 ? 0.0 : std::exp2(static_cast<double>(i)) - 1.0;
      if (seen == 0) lo = std::max(lo, static_cast<double>(min));
      if (seen + cnt >= static_cast<double>(count))
        hi = std::min(hi, static_cast<double>(max));
      if (hi < lo) hi = lo;
      const double frac = cnt <= 1.0 ? 0.0 : (pos - seen) / (cnt - 1.0);
      return lo + frac * (hi - lo);
    }
    seen += cnt;
  }
  return static_cast<double>(max);
}

bool is_host_time_family(std::string_view name) {
  return name.starts_with("obs.phase_") || name.starts_with("obs.profile_") ||
         name == "sim.run_wall_ns" || name == "sim.events_per_sec";
}

// ----------------------------------------------------------------- Gauge --

void Gauge::mirror(std::int64_t v, Time at) const {
  // Sampled on change: one counter-track point per distinct level.
  const auto rank = static_cast<int>(cell_ - fam_->gauges.data());
  if (rank >= kPerfettoGaugeRankLimit || is_host_time_family(fam_->name))
    return;
  fam_->reg->tracer()->counter(
      rank, "obs", fam_->name + " (rank " + std::to_string(rank) + ")", at,
      static_cast<double>(v));
}

// -------------------------------------------------------------- Registry --

Registry::Registry(int nranks) : nranks_(nranks) {
  NARMA_CHECK(nranks >= 1) << "metrics registry needs at least one rank";
}

detail::Family& Registry::family(const std::string& name, Kind kind) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    auto fam = std::make_unique<detail::Family>();
    fam->reg = this;
    fam->name = name;
    fam->kind = kind;
    const auto n = static_cast<std::size_t>(nranks_);
    switch (kind) {
      case Kind::kCounter: fam->counts.resize(n); break;
      case Kind::kGauge: fam->gauges.resize(n); break;
      case Kind::kHistogram: fam->hists.resize(n); break;
    }
    it = families_.emplace(name, std::move(fam)).first;
  }
  NARMA_CHECK(it->second->kind == kind)
      << "metric '" << name << "' re-registered with a different kind";
  return *it->second;
}

const detail::Family* Registry::find(const std::string& name) const {
  auto it = families_.find(name);
  return it == families_.end() ? nullptr : it->second.get();
}

const detail::Family* Registry::find(const std::string& name, Kind kind,
                                     int rank) const {
  const detail::Family* fam = find(name);
  if (!fam || fam->kind != kind || rank < 0 || rank >= nranks_) return nullptr;
  return fam;
}

Counter Registry::counter(const std::string& name, int rank) {
  NARMA_CHECK(rank >= 0 && rank < nranks_) << "bad metric rank " << rank;
  return Counter(
      &family(name, Kind::kCounter).counts[static_cast<std::size_t>(rank)]);
}

Gauge Registry::gauge(const std::string& name, int rank) {
  NARMA_CHECK(rank >= 0 && rank < nranks_) << "bad metric rank " << rank;
  detail::Family& fam = family(name, Kind::kGauge);
  return Gauge(&fam.gauges[static_cast<std::size_t>(rank)], &fam);
}

Histogram Registry::histogram(const std::string& name, int rank) {
  NARMA_CHECK(rank >= 0 && rank < nranks_) << "bad metric rank " << rank;
  return Histogram(
      &family(name, Kind::kHistogram).hists[static_cast<std::size_t>(rank)]);
}

bool Registry::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const auto& [name, fam] : families_) out.push_back(name);
  return out;
}

void Registry::visit(const std::function<void(const FamilyView&)>& fn) const {
  for (const auto& [name, fam] : families_)
    fn(FamilyView{fam->name, fam->kind, fam->counts, fam->gauges, fam->hists});
}

std::uint64_t Registry::counter_value(const std::string& name,
                                      int rank) const {
  const detail::Family* fam = find(name, Kind::kCounter, rank);
  return fam ? fam->counts[static_cast<std::size_t>(rank)] : 0;
}

std::int64_t Registry::gauge_value(const std::string& name, int rank) const {
  const detail::Family* fam = find(name, Kind::kGauge, rank);
  return fam ? fam->gauges[static_cast<std::size_t>(rank)].level : 0;
}

std::int64_t Registry::gauge_high_water(const std::string& name,
                                        int rank) const {
  const detail::Family* fam = find(name, Kind::kGauge, rank);
  return fam ? fam->gauges[static_cast<std::size_t>(rank)].high_water : 0;
}

const HistData* Registry::hist_data(const std::string& name, int rank) const {
  const detail::Family* fam = find(name, Kind::kHistogram, rank);
  return fam ? &fam->hists[static_cast<std::size_t>(rank)] : nullptr;
}

std::uint64_t Registry::aggregate_counter_sum(const std::string& name) const {
  const detail::Family* fam = find(name);
  if (!fam) return 0;
  std::uint64_t s = 0;
  for (std::uint64_t v : fam->counts) s += v;
  return s;
}

int Registry::aggregate_counter_active(const std::string& name) const {
  const detail::Family* fam = find(name);
  if (!fam) return 0;
  int n = 0;
  for (std::uint64_t v : fam->counts) n += v != 0;
  return n;
}

std::int64_t Registry::aggregate_gauge_hw(const std::string& name) const {
  const detail::Family* fam = find(name);
  if (!fam) return 0;
  std::int64_t hw = 0;
  for (const GaugeCell& g : fam->gauges) hw = std::max(hw, g.high_water);
  return hw;
}

std::int64_t Registry::aggregate_gauge_last(const std::string& name) const {
  const detail::Family* fam = find(name);
  if (!fam) return 0;
  std::int64_t last = 0;
  Time best = 0;
  bool any = false;
  for (const GaugeCell& g : fam->gauges) {
    if (g.last_set == 0 && g.level == 0 && g.high_water == 0) continue;
    if (!any || g.last_set >= best) {
      any = true;
      best = g.last_set;
      last = g.level;
    }
  }
  return last;
}

HistData Registry::aggregate_hist(const std::string& name) const {
  HistData h;
  const detail::Family* fam = find(name);
  if (!fam) return h;
  for (const HistData& r : fam->hists) h.merge(r);
  return h;
}

std::size_t Registry::footprint_bytes() const {
  std::size_t b = sizeof(Registry);
  for (const auto& [name, fam] : families_) {
    b += sizeof(detail::Family) + fam->name.size();
    b += fam->counts.size() * sizeof(std::uint64_t);
    b += fam->gauges.size() * sizeof(GaugeCell);
    b += fam->hists.size() * sizeof(HistData);
  }
  return b;
}

std::string Registry::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"narma.metrics.v1\",\"nranks\":" << nranks_
     << ",\"metrics\":[";
  bool first_fam = true;
  for (const auto& [name, fam] : families_) {
    if (!first_fam) os << ',';
    first_fam = false;
    const char* kind = fam->kind == Kind::kCounter   ? "counter"
                       : fam->kind == Kind::kGauge   ? "gauge"
                                                     : "histogram";
    os << "{\"name\":\"" << name << "\",\"kind\":\"" << kind
       << "\",\"per_rank\":[";
    for (int r = 0; r < nranks_; ++r) {
      if (r) os << ',';
      const auto ri = static_cast<std::size_t>(r);
      os << "{\"rank\":" << r;
      switch (fam->kind) {
        case Kind::kCounter:
          os << ",\"value\":" << fam->counts[ri];
          break;
        case Kind::kGauge:
          os << ",\"value\":" << fam->gauges[ri].level
             << ",\"high_water\":" << fam->gauges[ri].high_water;
          break;
        case Kind::kHistogram: {
          const HistData& h = fam->hists[ri];
          os << ",\"count\":" << h.count << ",\"sum\":" << h.sum
             << ",\"min\":" << h.min << ",\"max\":" << h.max;
          // Interpolated percentiles (see HistData::quantile); exact for
          // single-valued distributions, so dashboards need not re-derive
          // them from the bucket vector.
          os << ",\"p50\":" << h.quantile(0.50) << ",\"p90\":"
             << h.quantile(0.90) << ",\"p99\":" << h.quantile(0.99);
          os << ",\"buckets\":[";
          bool first_b = true;
          for (std::size_t i = 0; i < h.buckets.size(); ++i) {
            if (h.buckets[i] == 0) continue;
            if (!first_b) os << ',';
            first_b = false;
            // Bucket i spans [2^(i-1), 2^i - 1]; the shift form of hi would
            // be undefined for the top bucket (i = 64).
            const std::uint64_t lo = i == 0 ? 0 : (1ull << (i - 1));
            const std::uint64_t hi =
                i == 0 ? 0
                       : std::numeric_limits<std::uint64_t>::max() >> (64 - i);
            os << "{\"lo\":" << lo << ",\"hi\":" << hi
               << ",\"count\":" << h.buckets[i] << '}';
          }
          os << ']';
          break;
        }
      }
      os << '}';
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

}  // namespace narma::obs
