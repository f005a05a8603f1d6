// Chrome trace-event writer.
//
// Collects spans, flow arrows and counter samples per rank lane in virtual
// time and renders them as Chrome trace-event JSON, which chrome://tracing
// and Perfetto open. No simulator layer records into it: `narma_cli
// timeline DIR --perfetto=FILE` (obs::timeline) builds one from a run
// directory's msgtrace.json and timeseries.json and writes it out.
//
//   sim::Tracer t(2);
//   t.span(0, "msg", "put issue", us(1), us(1));
//   t.flow(0, 1, "msg", "put", us(1), us(2), /*id=*/7);
//   std::string json = t.to_json();
//
// Events store `const char*` names: string-literal call sites pay nothing,
// and the owned-string overloads intern into a node-based set so each
// distinct dynamic name is stored once for the tracer's lifetime.
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

  /// Arrow between two ranks' timelines, keyed by the caller's `id`
  /// (obs::MsgTrace::flow_id for message legs). Its end binds to the
  /// enclosing slice ("bp":"e"), so a span should cover `arrive`.
  void flow(int from_rank, int to_rank, const char* category,
            const char* name, Time depart, Time arrive, std::uint64_t id) {
    lane(from_rank).push_back(
        {name, category, depart, depart, Kind::kFlowStart, id});
    lane(to_rank).push_back(
        {name, category, arrive, arrive, Kind::kFlowEnd, id});
  }
  void flow(int from_rank, int to_rank, const char* category,
            std::string name, Time depart, Time arrive, std::uint64_t id) {
    flow(from_rank, to_rank, category, intern(std::move(name)), depart,
         arrive, id);
  }

  /// One sample of a counter track ("C" phase). Perfetto renders all samples
  /// with the same name as one track.
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
  enum class Kind : std::uint8_t { kSpan, kFlowStart, kFlowEnd, kCounter };

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
};

}  // namespace narma::sim
