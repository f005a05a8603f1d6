// Virtual-time tracing.
//
// When enabled, the communication layers record spans (begin/end in virtual
// time, per rank) and instant events. The trace dumps in the Chrome
// trace-event JSON format, so a simulated run can be inspected on a real
// timeline in chrome://tracing or Perfetto:
//
//   narma::WorldParams wp;
//   wp.obs.trace = true;
//   narma::World world(4, wp);
//   world.run(...);
//   world.write_artifacts("run");  // run/trace.json
//
// Recording is append-only into per-rank buffers; with tracing disabled the
// hooks cost one pointer test. Events store `const char*` names: static-name
// call sites (string literals — all the hot paths) pay nothing, and the
// owned-string overloads intern into a node-based set so each distinct
// dynamic name is stored once for the tracer's lifetime.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"

namespace narma::sim {

class Tracer {
 public:
  explicit Tracer(int nranks) : ranks_(static_cast<std::size_t>(nranks)) {}

  /// Completed span [begin, end] on `rank`'s timeline. The `const char*`
  /// overloads store the pointer as-is and require it to outlive the tracer
  /// (string literals in practice).
  void span(int rank, const char* category, const char* name, Time begin,
            Time end) {
    lane(rank).push_back({name, category, begin, end, Kind::kSpan});
  }
  void span(int rank, const char* category, std::string name, Time begin,
            Time end) {
    span(rank, category, intern(std::move(name)), begin, end);
  }

  /// Zero-duration marker.
  void instant(int rank, const char* category, const char* name, Time at) {
    lane(rank).push_back({name, category, at, at, Kind::kInstant});
  }
  void instant(int rank, const char* category, std::string name, Time at) {
    instant(rank, category, intern(std::move(name)), at);
  }

  /// Arrow between two ranks' timelines (message flow). `id` 0 (default)
  /// allocates a fresh internal flow id; callers carrying their own id
  /// space (obs::MsgTrace::flow_id) pass it explicitly so external tooling
  /// can correlate the arrows.
  void flow(int from_rank, int to_rank, const char* category,
            const char* name, Time depart, Time arrive, std::uint64_t id = 0) {
    if (id == 0) id = next_flow_id_++;
    lane(from_rank).push_back(
        {name, category, depart, depart, Kind::kFlowStart, id});
    lane(to_rank).push_back(
        {name, category, arrive, arrive, Kind::kFlowEnd, id});
  }
  void flow(int from_rank, int to_rank, const char* category,
            std::string name, Time depart, Time arrive, std::uint64_t id = 0) {
    flow(from_rank, to_rank, category, intern(std::move(name)), depart,
         arrive, id);
  }

  /// One sample of a counter track ("C" phase). Perfetto renders all samples
  /// with the same name as one track; the metrics registry emits one track
  /// per (metric, rank) and samples it on change.
  void counter(int rank, const char* category, const char* name, Time at,
               double value) {
    lane(rank).push_back({name, category, at, at, Kind::kCounter, 0, value});
  }
  void counter(int rank, const char* category, std::string name, Time at,
               double value) {
    counter(rank, category, intern(std::move(name)), at, value);
  }

  std::size_t event_count() const {
    std::size_t n = 0;
    for (const auto& l : ranks_) n += l.size();
    return n;
  }

  /// Distinct dynamic names interned so far (tests; memory accounting).
  std::size_t interned_count() const { return interned_.size(); }

  /// Renders the Chrome trace-event JSON document.
  std::string to_json() const;

 private:
  enum class Kind : std::uint8_t {
    kSpan,
    kInstant,
    kFlowStart,
    kFlowEnd,
    kCounter
  };

  struct Event {
    const char* name;
    const char* category;
    Time begin;
    Time end;
    Kind kind;
    std::uint64_t flow_id = 0;
    double value = 0;  // counter samples only
  };

  std::vector<Event>& lane(int rank) {
    NARMA_CHECK(rank >= 0 && static_cast<std::size_t>(rank) < ranks_.size())
        << "trace event for out-of-range rank " << rank << " (tracer has "
        << ranks_.size() << " lanes)";
    return ranks_[static_cast<std::size_t>(rank)];
  }

  /// Node-based set: element addresses are stable across rehashing, so the
  /// returned pointer stays valid for the tracer's lifetime.
  const char* intern(std::string&& s) {
    return interned_.insert(std::move(s)).first->c_str();
  }

  std::vector<std::vector<Event>> ranks_;
  std::unordered_set<std::string> interned_;
  std::uint64_t next_flow_id_ = 1;
};

/// RAII span helper: records [construction, destruction] on the rank's
/// virtual clock when a tracer is attached (nullptr tracer = no-op).
template <class Clock>
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const Clock& clock, int rank,
             const char* category, const char* name)
      : tracer_(tracer), clock_(clock), rank_(rank), category_(category),
        name_(name), begin_(tracer ? clock() : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->span(rank_, category_, name_, begin_, clock_());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Clock clock_;
  int rank_;
  const char* category_;
  const char* name_;
  Time begin_;
};

}  // namespace narma::sim
