#include "obs/readers.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/file.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "obs/msgtrace.hpp"
#include "obs/params.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "sim/trace.hpp"

namespace narma::obs {

namespace {

/// Integers a double holds exactly: the widest range integer() converts.
constexpr long long kExact = 1LL << 53;

/// Largest magnitude a document number may have. The writers emit 64-bit
/// integers and ratios, so nothing legitimate is larger, and sums over a
/// document's arrays stay finite (no inf - inf = NaN reaches a sort).
constexpr double kMaxMagnitude = 0x1p64;

/// Highest rank count the Perfetto export accepts: its lanes are indexed by
/// rank, so this bounds what one hostile rank id can make it allocate.
constexpr long long kMaxRanks = 1LL << 20;

/// How a reader stops early. Thrown only inside this file and turned into a
/// ReadResult at each reader's entry, so nothing leaves a reader but its
/// result.
struct Stop {
  ReadStatus status;
  std::string diagnostic;
};

/// Rejects a number too large for any field (see kMaxMagnitude); recursion
/// depth is bounded by json::kMaxNesting.
const char* check_magnitudes(const json::Value& v) {
  if (v.is_number() && !(std::abs(v.as_number()) <= kMaxMagnitude))
    return "a number exceeds 2^64 in magnitude";
  for (const json::Value& e : v.as_array())
    if (const char* err = check_magnitudes(e)) return err;
  for (const auto& [key, e] : v.as_object())
    if (const char* err = check_magnitudes(e)) return err;
  return nullptr;
}

/// One file of a run directory, parsed and schema-checked, with the reader
/// that reads it (both name every diagnostic).
struct Artifact {
  const char* reader;
  std::string path;
  json::Value doc;

  [[noreturn]] void fail(const std::string& what) const {
    throw Stop{ReadStatus::kFailed,
               std::string(reader) + ": " + path + ": " + what};
  }

  /// `v` truncated to an integer in [lo, hi] (within ±2^53), or a
  /// diagnostic naming `field`: the one way a reader turns a document
  /// number into an integer.
  long long integer(double v, const std::string& field,
                    long long lo = -kExact, long long hi = kExact) const {
    const double t = std::trunc(v);
    if (!(t >= static_cast<double>(lo) && t <= static_cast<double>(hi))) {
      char range[96];
      std::snprintf(range, sizeof range,
                    "%.17g is not an integer in [%lld, %lld]", v, lo, hi);
      fail(field + ": " + range);
    }
    return static_cast<long long>(t);
  }
  /// integer() of `obj[key]`, `dflt` when absent.
  long long integer(const json::Value& obj, const char* key, double dflt,
                    long long lo = -kExact, long long hi = kExact) const {
    return integer(obj.number_or(key, dflt), key, lo, hi);
  }
  /// `obj[key]`, or a diagnostic naming `key` when it is not a number.
  double number(const json::Value& obj, const char* key) const {
    const json::Value& v = obj[key];
    if (!v.is_number()) fail(std::string(key) + ": missing or not a number");
    return v.as_number();
  }
};

/// Loads DIR/`name`: nullopt when the file is absent (a diagnostic when it
/// is `required`); a diagnostic naming the file when it does not parse,
/// carries another "schema" than `schema`, or holds a number past
/// kMaxMagnitude.
std::optional<Artifact> load(const char* reader, const std::string& dir,
                             const char* name, const char* schema,
                             bool required = false) {
  Artifact art{reader, dir + "/" + name, {}};
  std::error_code ec;  // an unreadable path falls through to the parse error
  if (!std::filesystem::exists(art.path, ec) && !ec) {
    if (required) art.fail("no such file");
    return std::nullopt;
  }
  json::ParseResult res = json::parse_file(art.path);
  if (!res.ok)
    art.fail(res.error + " (offset " + std::to_string(res.error_pos) + ")");
  const std::string found = res.value.string_or("schema", "");
  if (found != schema)
    art.fail("unknown schema '" + found + "', expected " + schema);
  if (const char* err = check_magnitudes(res.value)) art.fail(err);
  art.doc = std::move(res.value);
  return art;
}

/// Runs one reader body, turning an early stop into its result.
template <class Body>
ReadResult guarded(Body&& body) {
  try {
    body();
    return {};
  } catch (const Stop& stop) {
    return {stop.status, stop.diagnostic};
  }
}

/// Prints a blank line, "`title`:" and the table.
void print(std::FILE* out, const std::string& title, const Table& t) {
  std::fprintf(out, "\n%s:\n%s", title.c_str(), t.render().c_str());
}

/// Whether a document's kind string names `k` (a metric Kind or a HopKind).
template <class K>
bool is(const std::string& kind, K k) {
  return kind == to_string(k);
}

// --- metrics.json ------------------------------------------------------------

/// The families of a narma.metrics.v1 document as `report` and `diff` read
/// them: name, kind and per-rank cells, exactly as the document holds them.
/// The cells point into the document, which must outlive this view.
struct MetricsDoc {
  struct Family {
    std::string name, kind;
    const json::Array* cells;  // null when per_rank is not an array
  };
  std::vector<Family> families;

  explicit MetricsDoc(const json::Value& doc) {
    for (const json::Value& fam : doc["metrics"].as_array()) {
      const json::Value& pr = fam["per_rank"];
      families.push_back({fam.string_or("name", "?"),
                          fam.string_or("kind", "?"),
                          pr.is_array() ? &pr.as_array() : nullptr});
    }
  }

  /// The first family named `name`'s cells; null when it has none.
  const json::Array* cells(std::string_view name) const {
    for (const Family& f : families)
      if (f.name == name) return f.cells;
    return nullptr;
  }

  /// `field` of the named family's rank-0 cell; 0 when absent.
  double rank0(std::string_view name, const char* field) const {
    const json::Array* c = cells(name);
    return c && !c->empty() ? c->front().number_or(field, 0) : 0.0;
  }

  /// The family as one comparable number: counters sum their values,
  /// gauges take the global high-water, histograms count their samples.
  static double reduced(const Family& f) {
    double v = 0;
    if (!f.cells) return v;
    for (const json::Value& cell : *f.cells) {
      if (is(f.kind, Kind::kCounter))
        v += cell.number_or("value", 0);
      else if (is(f.kind, Kind::kGauge))
        v = std::max(v, cell.number_or("high_water", 0));
      else
        v += cell.number_or("count", 0);
    }
    return v;
  }
};

/// Metrics sections of `report`: per-rank busy fractions, host-time phase
/// attribution (from --profile runs), per-backend notification counts,
/// histogram percentiles and obs self-cost.
void report_metrics(const Artifact& m, std::FILE* out) {
  const MetricsDoc doc(m.doc);

  // Per-rank busy fractions from the sim.* gauges, which World::run sets
  // after the run: a crash directory ($NARMA_CRASH_DIR) has none. One row
  // per busy cell the document holds.
  const json::Array* busy = doc.cells("sim.busy_ns");
  const json::Array* total = doc.cells("sim.total_ns");
  const json::Array* blocked = doc.cells("sim.blocked_ns");
  if (!busy || !total) {
    std::fprintf(out,
                 "\n%s has no sim.busy_ns/sim.total_ns gauges: the run did "
                 "not finish\n",
                 m.path.c_str());
  } else {
    auto at = [](const json::Array* cells, std::size_t r) {
      return cells && r < cells->size() ? (*cells)[r].number_or("value", 0)
                                        : 0.0;
    };
    Table busy_table(
        {"rank", "busy_ms", "blocked_ms", "total_ms", "busy_frac"});
    for (std::size_t r = 0; r < busy->size(); ++r) {
      const double b = at(busy, r), w = at(blocked, r), t = at(total, r);
      busy_table.add_row({Table::fmt(r), Table::fmt(b / 1e6),
                          Table::fmt(w / 1e6), Table::fmt(t / 1e6),
                          Table::fmt(t > 0 ? b / t : 0.0)});
    }
    print(out, "per-rank busy fraction (from " + m.path + ")", busy_table);
  }

  // Host-time phase attribution (--profile runs export obs.phase_* gauges).
  // The matching/obs/plumbing split of real host wall-clock — the paper's
  // simulator-cost question, answered from the dump alone.
  const double prof_total = doc.rank0("obs.profile_total_ns", "value");
  if (prof_total > 0) {
    Table phase_table({"phase", "host_ms", "calls", "% of run"});
    double attributed = 0;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      const char* ph = to_string(static_cast<Phase>(p));
      const std::string base = std::string("obs.phase_") + ph;
      const double ns_v = doc.rank0(base + "_ns", "value");
      const double calls = doc.rank0(base + "_calls", "value");
      attributed += ns_v;
      phase_table.add_row({ph, Table::fmt(ns_v / 1e6),
                           Table::fmt(m.integer(calls, base + "_calls")),
                           Table::fmt(100.0 * ns_v / prof_total, 1)});
    }
    const double unattr = doc.rank0("obs.profile_unattributed_ns", "value");
    phase_table.add_row({"(unattributed)", Table::fmt(unattr / 1e6), "-",
                         Table::fmt(100.0 * unattr / prof_total, 1)});
    phase_table.add_row({"(total)", Table::fmt(prof_total / 1e6), "-",
                         Table::fmt(100.0, 1)});
    print(out, "host-time phase attribution", phase_table);
    const double obs_ns = doc.rank0("obs.phase_obs_ns", "value");
    std::fprintf(out,
                 "attributed %.1f%% of host run; obs self-overhead %.2f%%\n",
                 100.0 * attributed / prof_total, 100.0 * obs_ns / prof_total);
  }

  // Notification deliveries by the pair they crossed: shm within a node,
  // aries across nodes (the registry has no net.aries_notifs family when
  // the run fits on one node).
  Table be_table({"backend", "notifs"});
  for (const char* be : {"shm", "aries"}) {
    const std::string name = std::string("net.") + be + "_notifs";
    const json::Array* notifs = doc.cells(name);
    if (!notifs) continue;
    double n = 0;
    for (const json::Value& cell : *notifs) n += cell.number_or("value", 0);
    be_table.add_row({be, Table::fmt(m.integer(n, name))});
  }
  if (!be_table.rows().empty())
    print(out, "per-backend notifications", be_table);

  // Histogram families: aggregate count plus the interpolated percentiles
  // of the busiest rank (highest count), typical-value columns for sweeps.
  Table h_table({"histogram", "count", "p50", "p90", "p99", "max"});
  for (const MetricsDoc::Family& fam : doc.families) {
    if (!is(fam.kind, Kind::kHistogram) || !fam.cells) continue;
    const json::Value* top = nullptr;
    for (const json::Value& cell : *fam.cells)
      if (!top || cell.number_or("count", 0) > top->number_or("count", 0))
        top = &cell;
    const double count = MetricsDoc::reduced(fam);
    if (!top || count == 0) continue;
    h_table.add_row({fam.name, Table::fmt(m.integer(count, fam.name)),
                     Table::fmt(top->number_or("p50", 0)),
                     Table::fmt(top->number_or("p90", 0)),
                     Table::fmt(top->number_or("p99", 0)),
                     Table::fmt(top->number_or("max", 0))});
  }
  if (!h_table.rows().empty())
    print(out, "histogram percentiles (busiest rank)", h_table);

  // Obs self-cost gauges: the registry footprint and the journal depth,
  // both carried by rank 0.
  const double registry_bytes = doc.rank0("obs.registry_bytes", "high_water");
  const double journal_depth = doc.rank0("obs.journal_depth", "high_water");
  if (registry_bytes > 0 || journal_depth > 0)
    std::fprintf(out,
                 "\nobs self-cost: registry ~%.1f KiB, journal depth %lld\n",
                 registry_bytes / 1024.0,
                 m.integer(journal_depth, "obs.journal_depth"));
}

// --- journal.json and timeseries.json ----------------------------------------

/// Prints an anomaly-journal dump (narma.journal.v1): the bounded,
/// virtual-time-ordered record of faults, backpressure episodes, overflow
/// spills and fail-stop recovery.
void print_journal(const Artifact& journal, std::FILE* out) {
  const json::Value& doc = journal.doc;
  const json::Array& records = doc["records"].as_array();
  std::fprintf(out,
               "\njournal %s: %lld appended, %lld dropped (capacity %lld), "
               "%zu retained\n",
               journal.path.c_str(), journal.integer(doc, "appended", 0),
               journal.integer(doc, "dropped", 0),
               journal.integer(doc, "capacity", 0), records.size());
  if (records.empty()) {
    std::fprintf(out, "journal: clean run (no anomalies recorded)\n");
    return;
  }
  Table j_table({"t_us", "kind", "rank", "peer", "detail"});
  std::map<std::string, long long> by_kind;
  for (const json::Value& r : records) {
    j_table.add_row({Table::fmt(r.number_or("t_ps", 0) / 1e6),
                     r.string_or("kind", "?"),
                     Table::fmt(journal.integer(r, "rank", -1)),
                     Table::fmt(journal.integer(r, "peer", -1)),
                     r.string_or("detail", "")});
    ++by_kind[r.string_or("kind", "?")];
  }
  std::fputs(j_table.render().c_str(), out);

  // Per-kind counts, the one-line health summary.
  std::string counts;
  for (const auto& [k, n] : by_kind) {
    if (!counts.empty()) counts += ", ";
    counts += k + "=" + Table::fmt(n);
  }
  std::fprintf(out, "by kind: %s\n", counts.c_str());
}

/// The family a flight-recorder cell names; null past the document's list.
const json::Value& family_of(const Artifact& ts, const json::Value& cell) {
  return ts.doc["families"][static_cast<std::size_t>(
      ts.integer(cell, "family", 0, 0, kExact))];
}

/// Flight-recorder sections of `timeline`.
void print_timeseries(const Artifact& ts, std::size_t topk, std::FILE* out) {
  const json::Value& doc = ts.doc;
  const json::Array& windows = doc["windows"].as_array();
  std::fprintf(out,
               "timeseries %s: %lld ranks, window=%.1f us, %lld snapshots "
               "(%lld downsampling merges) -> %zu windows\n",
               ts.path.c_str(), ts.integer(doc, "nranks", 0, INT_MIN, INT_MAX),
               doc.number_or("window_ps", 0) / 1e6,
               ts.integer(doc, "snapshots", 0), ts.integer(doc, "merges", 0),
               windows.size());

  // Per-window rank activity from rank_agg, which covers every rank: the
  // time-weighted mean busy fraction (busy_ps_sum / total_ps_sum) and the
  // laggard (lowest busy fraction among active ranks). Only the last --top
  // windows are tabulated; the telescoped history stays in the JSON.
  const std::size_t first_shown =
      windows.size() > topk ? windows.size() - topk : 0;
  if (first_shown > 0)
    std::fprintf(out,
                 "(showing the last %zu of %zu windows; older ones are "
                 "geometrically merged)\n",
                 topk, windows.size());
  Table win_table({"window", "t_begin_us", "t_end_us", "merged", "cells",
                   "active", "mean_busy", "min_busy", "laggard",
                   "stragglers"});
  for (std::size_t i = first_shown; i < windows.size(); ++i) {
    const json::Value& win = windows[i];
    const json::Value& ag = win["rank_agg"];
    const double tot = ag.number_or("total_ps_sum", 0);
    win_table.add_row(
        {Table::fmt(i), Table::fmt(win.number_or("t_begin_ps", 0) / 1e6),
         Table::fmt(win.number_or("t_end_ps", 0) / 1e6),
         Table::fmt(ts.integer(win, "merged", 1)),
         Table::fmt(win["cells"].as_array().size()),
         Table::fmt(ts.integer(ag, "active", 0)),
         Table::fmt(tot > 0 ? ag.number_or("busy_ps_sum", 0) / tot : 0.0),
         Table::fmt(ag.number_or("min_busy", 0)),
         Table::fmt(ts.integer(ag, "min_rank", -1)),
         Table::fmt(ts.integer(ag, "stragglers", 0))});
  }
  print(out, "per-window rank activity", win_table);

  // Busiest counter families by total delta across all windows and ranks.
  std::map<std::string, double> fam_totals;
  for (const json::Value& win : windows)
    for (const json::Value& c : win["cells"].as_array()) {
      const json::Value& fam = family_of(ts, c);
      const std::string kind = fam.string_or("kind", "");
      if (is(kind, Kind::kCounter))
        fam_totals[fam.string_or("name", "?")] += c.number_or("delta", 0);
      else if (is(kind, Kind::kHistogram))
        fam_totals[fam.string_or("name", "?")] += c.number_or("delta_count", 0);
    }
  std::vector<std::pair<std::string, double>> ranked(fam_totals.begin(),
                                                     fam_totals.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    return x.second > y.second || (x.second == y.second && x.first < y.first);
  });
  Table fam_table({"family", "total over run"});
  for (std::size_t i = 0; i < std::min(topk, ranked.size()); ++i) {
    const auto& [name, total] = ranked[i];
    fam_table.add_row({name, Table::fmt(ts.integer(total, name))});
  }
  print(out, "busiest families (counters + histogram counts)", fam_table);
}

/// A (window, backend) channel is flagged when its mean measured
/// channel-stage latency exceeds the single-leg LogGP floor by more than
/// this relative margin.
constexpr double kResidualThreshold = 0.50;

/// One (window, backend) group of channel_residuals().
struct ChannelResidual {
  std::size_t window;
  std::string backend;
  std::uint64_t msgs = 0;
  double model = 0;    // sums until the group is complete, then means
  double resid = 0;
  double max_abs = 0;  // largest |residual| of one message
  bool flagged = false;
};

/// The LogGP residual of every complete message of msgtrace.json: its
/// channel stage (chan_queue + gap + ser + wire) minus the floor
/// g + G·bytes + L of the lane it used, grouped by the timeseries window
/// holding its end (the first window ending after it; the last window
/// absorbs the rest) and by backend: shm for the shm lane, aries for the
/// others. Sorted by window, then backend.
std::vector<ChannelResidual> channel_residuals(const Artifact& mt,
                                               const Artifact& ts) {
  std::vector<long long> ends;  // window end times, checked non-decreasing
  for (const json::Value& win : ts.doc["windows"].as_array()) {
    ends.push_back(ts.integer(ts.number(win, "t_end_ps"), "t_end_ps", 0,
                              kExact));
    if (ends.size() > 1 && ends.back() < ends[ends.size() - 2])
      ts.fail("window " + std::to_string(ends.size() - 1) +
              " ends before the window it follows");
  }
  if (ends.empty()) return {};
  struct Lane {
    double L, g, G;
  };
  std::map<std::string, Lane> lanes;
  for (const json::Value& l : mt.doc["lanes"].as_array())
    lanes[l.string_or("name", "?")] = {
        static_cast<double>(mt.integer(mt.number(l, "L_ps"), "L_ps")),
        static_cast<double>(mt.integer(mt.number(l, "g_ps"), "g_ps")),
        mt.number(l, "G_ps_per_byte")};
  auto ps = [&](const json::Value& obj, const char* key) {
    return static_cast<double>(mt.integer(mt.number(obj, key), key, 0, kExact));
  };
  std::map<std::pair<std::size_t, std::string>, ChannelResidual> groups;
  for (const json::Value& m : mt.doc["messages"].as_array()) {
    if (!m["complete"].as_bool()) continue;
    const std::string name = m.string_or("lane", "");
    const auto lane = lanes.find(name);
    if (lane == lanes.end())
      mt.fail("message lane '" + name + "' is not in the lanes table");
    const long long t_end = mt.integer(mt.number(m, "t_end_ps"), "t_end_ps");
    const std::size_t wi = std::min<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), t_end) - ends.begin(),
        ends.size() - 1);
    const Lane& tm = lane->second;
    const double model = tm.L + tm.g + tm.G * ps(m, "bytes");
    const json::Value& cat = m["decomp_ps"];
    const double resid = ps(cat, to_string(LatCat::kChanQueue)) +
                         ps(cat, to_string(LatCat::kGap)) +
                         ps(cat, to_string(LatCat::kSer)) +
                         ps(cat, to_string(LatCat::kWire)) - model;
    const std::string backend = name == "shm" ? "shm" : "aries";
    ChannelResidual& row =
        groups.try_emplace({wi, backend}, ChannelResidual{wi, backend})
            .first->second;
    ++row.msgs;
    row.model += model;
    row.resid += resid;
    row.max_abs = std::max(row.max_abs, std::abs(resid));
  }
  std::vector<ChannelResidual> rows;
  for (auto& [key, row] : groups) {
    row.model /= static_cast<double>(row.msgs);
    row.resid /= static_cast<double>(row.msgs);
    row.flagged = row.resid > kResidualThreshold * row.model;
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Residual and anomaly sections of `timeline`: the residual rows when
/// `mt` is given, and the anomalies: stragglers among each window's
/// recorded ranks, then flagged residual groups.
void print_anomalies(const Artifact& ts, const Artifact* mt, std::FILE* out) {
  const std::vector<ChannelResidual> rows =
      mt ? channel_residuals(*mt, ts) : std::vector<ChannelResidual>{};
  Table res_table({"window", "backend", "msgs", "model_ns", "residual_ns",
                   "max_|resid|_ns", "flag"});
  for (const ChannelResidual& r : rows)
    res_table.add_row({Table::fmt(r.window), r.backend, Table::fmt(r.msgs),
                       Table::fmt(r.model / 1e3), Table::fmt(r.resid / 1e3),
                       Table::fmt(r.max_abs / 1e3),
                       r.flagged ? "FLAGGED" : ""});
  if (!rows.empty())
    print(out, "model residuals (measured - LogGP per backend)", res_table);

  Table an_table({"window", "kind", "rank", "detail"});
  char detail[128];
  const json::Array& windows = ts.doc["windows"].as_array();
  for (std::size_t wi = 0; wi < windows.size(); ++wi) {
    // Busy fraction per recorded rank over the window; ranks that saw no
    // virtual time (already finished) are left out of the median.
    std::vector<std::pair<long long, double>> fracs;  // (rank, busy)
    for (const json::Value& r : windows[wi]["ranks"].as_array()) {
      const long long total = ts.integer(r, "total_ps", 0);
      if (total > 0)
        fracs.push_back({ts.integer(r, "rank", -1),
                         static_cast<double>(ts.integer(r, "busy_ps", 0)) /
                             static_cast<double>(total)});
    }
    if (fracs.size() < 2) continue;
    std::vector<double> sorted;
    for (const auto& [rank, f] : fracs) sorted.push_back(f);
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    for (const auto& [rank, f] : fracs) {
      if (f >= median - TimeSeries::kStragglerThreshold) continue;
      std::snprintf(detail, sizeof detail, "busy %.2f vs window median %.2f",
                    f, median);
      an_table.add_row({Table::fmt(wi), "straggler", Table::fmt(rank), detail});
    }
  }
  for (const ChannelResidual& r : rows) {
    if (!r.flagged) continue;
    std::snprintf(detail, sizeof detail,
                  "%s: mean residual %.0f ps over model %.0f ps (%llu msgs)",
                  r.backend.c_str(), r.resid, r.model,
                  static_cast<unsigned long long>(r.msgs));
    an_table.add_row({Table::fmt(r.window), "channel_residual", "-1", detail});
  }
  if (an_table.rows().empty())
    std::fprintf(out, "\nanomalies: none\n");
  else
    print(out, "anomalies (" + std::to_string(an_table.rows().size()) + ")",
          an_table);
}

// --- the Perfetto view ------------------------------------------------------

/// What `timeline --perfetto` draws, gathered before the sim::Tracer that
/// writes it is sized: the Tracer's lanes are the ranks the documents name.
/// A rank past its document's own count (or kMaxRanks) is a diagnostic,
/// never the Tracer's abort.
struct PerfettoView {
  struct Slice {
    int rank;
    std::string name;
    Time at;
  };
  struct Arrow {
    int from, to;
    std::string name;
    Time begin, end;
    std::uint64_t id;
  };
  struct Sample {
    int rank;
    std::string name;
    Time at;
    double value;
  };
  std::vector<Slice> slices;
  std::vector<Arrow> arrows;
  std::vector<Sample> samples;
  int lanes = 0;

  /// `obj`'s "rank" as a lane of `art`'s ranks.
  int lane(const Artifact& art, const json::Value& obj) {
    const long long max_rank =
        std::min(art.integer(art.doc, "nranks", 0, 0, kExact), kMaxRanks) - 1;
    const auto rank =
        static_cast<int>(art.integer(obj, "rank", 0, 0, max_rank));
    lanes = std::max(lanes, rank + 1);
    return rank;
  }
};

/// msgtrace.json's messages: a zero-length slice per hop on the rank that
/// recorded it, named "<op> <hop>", and one arrow per leg, keyed by the
/// message's flow_id. A leg runs from a chan_start to the next deliver. It
/// departs at the last issue or match_hit (the send call) its rank recorded
/// before the chan_start, else at the chan_start itself: a NIC-generated
/// response has no send call.
void add_messages(const Artifact& mt, PerfettoView& view) {
  struct Hop {
    int rank = -1;  // -1: none
    Time t = 0;
  };
  for (const json::Value& m : mt.doc["messages"].as_array()) {
    const std::string op = m.string_or("op", "?");
    const auto id =
        static_cast<std::uint64_t>(mt.integer(m, "flow_id", 0, 1, kExact));
    Hop send, leg;
    for (const json::Value& h : m["hops"].as_array()) {
      const std::string kind = h.string_or("kind", "?");
      const Hop hop{view.lane(mt, h),
                    static_cast<Time>(mt.integer(h, "t_ps", 0, 0, kExact))};
      view.slices.push_back({hop.rank, op + " " + kind, hop.t});
      if (is(kind, HopKind::kIssue) || is(kind, HopKind::kMatchHit)) {
        send = hop;
      } else if (is(kind, HopKind::kChanStart)) {
        leg = send.rank == hop.rank ? send : hop;
        send = {};
      } else if (is(kind, HopKind::kDeliver) && leg.rank >= 0) {
        view.arrows.push_back({leg.rank, hop.rank, op, leg.t, hop.t, id});
        leg = {};
      }
    }
  }
}

/// timeseries.json's windows as counter tracks: one sample per (family,
/// rank) at each window end, plus a busy-fraction track per recorded rank.
void add_windows(const Artifact& ts, PerfettoView& view) {
  for (const json::Value& win : ts.doc["windows"].as_array()) {
    const Time at = ts.integer(win, "t_end_ps", 0, 0, kExact);
    for (const json::Value& r : win["ranks"].as_array()) {
      const double tot = r.number_or("total_ps", 0);
      view.samples.push_back(
          {view.lane(ts, r), "ts.busy_frac", at,
           tot > 0 ? r.number_or("busy_ps", 0) / tot : 0.0});
    }
    for (const json::Value& c : win["cells"].as_array()) {
      const json::Value& fam = family_of(ts, c);
      const std::string kind = fam.string_or("kind", "");
      view.samples.push_back(
          {view.lane(ts, c), "ts." + fam.string_or("name", "?"), at,
           is(kind, Kind::kCounter) ? c.number_or("delta", 0)
           : is(kind, Kind::kGauge) ? c.number_or("value", 0)
                                    : c.number_or("delta_count", 0)});
    }
  }
}

/// Writes `view` to `path` as a Chrome trace. Slices go in first, so at
/// equal timestamps each arrow end follows the slice it binds to.
void write_perfetto(const PerfettoView& view, const std::string& path) {
  sim::Tracer tracer(view.lanes);
  for (const PerfettoView::Slice& s : view.slices)
    tracer.span(s.rank, "msgtrace", s.name, s.at, s.at);
  for (const PerfettoView::Arrow& a : view.arrows)
    tracer.flow(a.from, a.to, "msgtrace", a.name, a.begin, a.end, a.id);
  for (const PerfettoView::Sample& c : view.samples)
    tracer.counter(c.rank, "timeseries", c.name, c.at, c.value);
  if (const std::string err = file::write(path, tracer.to_json());
      !err.empty())
    throw Stop{ReadStatus::kFailed, "timeline: cannot write " + err};
}

}  // namespace

// --- the readers -------------------------------------------------------------

ReadResult report(const std::string& dir, const ReadOptions& /*opt*/,
                  std::FILE* out) {
  return guarded([&] {
    report_metrics(
        *load("report", dir, kMetricsFile, "narma.metrics.v1", true), out);
  });
}

ReadResult critpath(const std::string& dir, const ReadOptions& opt,
                    std::FILE* out) {
  return guarded([&] {
    const Artifact mt =
        *load("critpath", dir, kMsgtraceFile, "narma.msgtrace.v1", true);
    const json::Value& doc = mt.doc;
    const json::Array& messages = doc["messages"].as_array();
    std::fprintf(
        out,
        "msgtrace %s: %lld ranks, sample_every=%lld, %lld injected / %lld "
        "sampled / %lld hop records dropped, %zu messages\n",
        mt.path.c_str(), mt.integer(doc, "nranks", 0, INT_MIN, INT_MAX),
        mt.integer(doc, "sample_every", 1), mt.integer(doc, "injections", 0),
        mt.integer(doc, "sampled", 0), mt.integer(doc, "dropped", 0),
        messages.size());

    // Decomposition identity across all complete messages: per-message
    // category times must sum exactly to the end-to-end latency (all values
    // are integer picoseconds, so the check is exact).
    std::size_t complete = 0, violations = 0;
    std::array<std::vector<double>, kNumCats> cat_lat_us;
    struct Msg {
      std::string op;
      long long src, dst, bytes;
      double lat_us;
      const char* top_cat;
      double top_cat_us;
      long long flow_id;
    };
    std::vector<Msg> msgs;
    for (const json::Value& m : messages) {
      if (!m["complete"].as_bool()) continue;
      ++complete;
      double sum_ps = 0;
      const char* top_cat = "-";
      double top_ps = -1;
      for (std::size_t c = 0; c < kNumCats; ++c) {
        const char* cat = to_string(static_cast<LatCat>(c));
        const double v = m["decomp_ps"].number_or(cat, 0);
        sum_ps += v;
        if (v > 0) cat_lat_us[c].push_back(v / 1e6);
        if (v > top_ps) {
          top_ps = v;
          top_cat = cat;
        }
      }
      if (sum_ps != m.number_or("latency_ps", 0)) ++violations;
      msgs.push_back({m.string_or("op", "?"), mt.integer(m, "src", -1),
                      mt.integer(m, "dst", -1), mt.integer(m, "bytes", 0),
                      m.number_or("latency_ps", 0) / 1e6, top_cat,
                      top_ps / 1e6, mt.integer(m, "flow_id", 0)});
    }
    std::fprintf(out,
                 "decomposition identity: %zu complete messages, %zu "
                 "violations%s\n",
                 complete, violations, violations ? " [FAIL]" : " [ok]");

    // Critical path: category breakdown and per-rank share.
    const json::Value& cp = doc["critical_path"];
    const double span_ps = cp.number_or("span_ps", 0);
    auto share = [&](double ps) {
      return Table::fmt(span_ps > 0 ? 100.0 * ps / span_ps : 0.0, 1);
    };
    std::fprintf(out,
                 "\ncritical path: %.3f us across %zu messages "
                 "(t=%.3f..%.3f us)\n",
                 span_ps / 1e6, cp["messages"].as_array().size(),
                 cp.number_or("t_begin_ps", 0) / 1e6,
                 cp.number_or("t_end_ps", 0) / 1e6);
    Table cp_table({"category", "time_us", "% of path"});
    double cp_sum_ps = 0;
    for (std::size_t c = 0; c < kNumCats; ++c) {
      const char* cat = to_string(static_cast<LatCat>(c));
      const double v = cp["decomp_ps"].number_or(cat, 0);
      cp_sum_ps += v;
      cp_table.add_row({cat, Table::fmt(v / 1e6), share(v)});
    }
    cp_table.add_row({"(sum)", Table::fmt(cp_sum_ps / 1e6), share(cp_sum_ps)});
    std::fputs(cp_table.render().c_str(), out);

    const json::Value& per_rank = cp["per_rank_ps"];
    if (per_rank.is_array() && span_ps > 0) {
      Table rank_table({"rank", "path_time_us", "% of path"});
      const json::Array& pr = per_rank.as_array();
      for (std::size_t r = 0; r < pr.size(); ++r)
        if (const double v = pr[r].as_number(); v > 0)
          rank_table.add_row({Table::fmt(r), Table::fmt(v / 1e6), share(v)});
      print(out, "critical-path share per rank", rank_table);
    }

    // Per-category latency statistics across complete messages.
    Table stat_table(
        {"category", "msgs", "mean_us", "p50_us", "p95_us", "max_us"});
    for (std::size_t c = 0; c < kNumCats; ++c) {
      const std::vector<double>& xs = cat_lat_us[c];
      if (xs.empty()) continue;
      stat_table.add_row({to_string(static_cast<LatCat>(c)),
                          Table::fmt(xs.size()), Table::fmt(stats::mean(xs)),
                          Table::fmt(stats::quantile(xs, 0.50)),
                          Table::fmt(stats::quantile(xs, 0.95)),
                          Table::fmt(stats::max(xs))});
    }
    print(out, "per-category latency across messages", stat_table);

    // Top-k slowest messages. flow_id lets the reader jump from a row to the
    // message's arrows in the trace `timeline --perfetto` writes (same id
    // namespace).
    std::sort(msgs.begin(), msgs.end(),
              [](const Msg& x, const Msg& y) { return x.lat_us > y.lat_us; });
    Table top_table({"op", "src", "dst", "bytes", "latency_us", "dominant",
                     "dom_us", "flow_id"});
    const std::size_t shown = std::min(opt.top, msgs.size());
    for (std::size_t i = 0; i < shown; ++i) {
      const Msg& m = msgs[i];
      top_table.add_row({m.op, Table::fmt(m.src), Table::fmt(m.dst),
                         Table::fmt(m.bytes), Table::fmt(m.lat_us), m.top_cat,
                         Table::fmt(m.top_cat_us), Table::fmt(m.flow_id)});
    }
    print(out, "top " + std::to_string(shown) + " slowest messages",
          top_table);
    if (violations)
      mt.fail(std::to_string(violations) +
              " complete messages break the decomposition identity");
  });
}

ReadResult timeline(const std::string& dir, const ReadOptions& opt,
                    std::FILE* out) {
  return guarded([&] {
    const bool perfetto = !opt.perfetto.empty();
    const std::optional<Artifact> ts =
        load("timeline", dir, kTimeseriesFile, "narma.timeseries.v1");
    const std::optional<Artifact> journal =
        load("timeline", dir, kJournalFile, "narma.journal.v1");
    const std::optional<Artifact> mt =
        perfetto || ts
            ? load("timeline", dir, kMsgtraceFile, "narma.msgtrace.v1")
            : std::nullopt;
    if (!ts && !journal && !mt)
      throw Stop{ReadStatus::kFailed, "timeline: " + dir + " holds neither " +
                                          kTimeseriesFile + " nor " +
                                          kJournalFile};
    if (perfetto && !ts && !mt)
      throw Stop{ReadStatus::kUsage, "timeline: --perfetto needs " + dir +
                                         "/" + kMsgtraceFile + " or " +
                                         kTimeseriesFile};
    if (ts) {
      print_timeseries(*ts, opt.top, out);
      print_anomalies(*ts, mt ? &*mt : nullptr, out);
    }
    if (perfetto) {
      PerfettoView view;
      if (mt) add_messages(*mt, view);
      if (ts) add_windows(*ts, view);
      write_perfetto(view, opt.perfetto);
      std::fprintf(out,
                   "\nwrote Perfetto trace to %s: %zu message-leg arrows, "
                   "%zu counter samples\n",
                   opt.perfetto.c_str(), view.arrows.size(),
                   view.samples.size());
    }
    if (journal) print_journal(*journal, out);
  });
}

ReadResult diff(const std::string& base_dir, const std::string& dir,
                const ReadOptions& opt, std::FILE* out) {
  return guarded([&] {
    struct Reduced {
      std::string kind;
      double value;
    };
    auto reduce = [](const std::string& d) {
      std::map<std::string, Reduced> fams;
      const Artifact m = *load("diff", d, kMetricsFile, "narma.metrics.v1",
                               true);
      const MetricsDoc doc(m.doc);
      for (const MetricsDoc::Family& f : doc.families)
        fams.insert_or_assign(f.name, Reduced{f.kind, MetricsDoc::reduced(f)});
      return fams;
    };
    const std::map<std::string, Reduced> base = reduce(base_dir);
    const std::map<std::string, Reduced> cur = reduce(dir);

    struct Row {
      std::string name, kind;
      double a, b, delta, rel;
    };
    std::vector<Row> rows;
    std::vector<std::string> added, removed;
    std::size_t unchanged = 0;
    for (const auto& [name, rb] : base) {
      auto it = cur.find(name);
      if (it == cur.end()) {
        removed.push_back(name);
        continue;
      }
      const double d = it->second.value - rb.value;
      if (d == 0) {
        ++unchanged;
        continue;
      }
      const double denom = std::max(std::abs(rb.value), 1.0);
      rows.push_back({name, rb.kind, rb.value, it->second.value, d,
                      d / denom});
    }
    for (const auto& [name, rc] : cur)
      if (!base.count(name)) added.push_back(name);

    std::fprintf(out,
                 "diff %s -> %s: %zu families compared, %zu changed, %zu "
                 "unchanged, %zu added, %zu removed\n",
                 base_dir.c_str(), dir.c_str(), base.size() - removed.size(),
                 rows.size(), unchanged, added.size(), removed.size());

    // Largest movers by relative delta (ties broken by absolute delta) —
    // the regression shortlist for sweep comparisons.
    std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
      const double rx = std::abs(x.rel), ry = std::abs(y.rel);
      if (rx != ry) return rx > ry;
      const double dx = std::abs(x.delta), dy = std::abs(y.delta);
      if (dx != dy) return dx > dy;
      return x.name < y.name;
    });
    const std::size_t shown = std::min(opt.top, rows.size());
    Table d_table({"family", "kind", "base", "new", "delta", "delta%"});
    for (std::size_t i = 0; i < shown; ++i) {
      const Row& r = rows[i];
      d_table.add_row({r.name, r.kind, Table::fmt(r.a), Table::fmt(r.b),
                       Table::fmt(r.delta), Table::fmt(100.0 * r.rel, 1)});
    }
    if (!rows.empty())
      print(out, "top " + std::to_string(shown) + " movers (by relative delta)",
            d_table);
    for (const std::string& n : added)
      std::fprintf(out, "added:   %s\n", n.c_str());
    for (const std::string& n : removed)
      std::fprintf(out, "removed: %s\n", n.c_str());
  });
}

}  // namespace narma::obs
