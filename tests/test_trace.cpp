// Tests of the Chrome trace-event writer (sim::Tracer) and of the trace
// `narma_cli timeline DIR --perfetto=FILE` renders from a run directory:
// arrows that pair up and bind to slices, and same-seed runs that render
// byte-identical files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/stencil.hpp"
#include "common/json.hpp"
#include "core/world.hpp"
#include "obs/readers.hpp"
#include "sim/trace.hpp"

using namespace narma;

namespace {

/// Writes `world`'s run directory as `name` and renders it with
/// `timeline --perfetto`; returns the rendered file's text.
std::string render(const World& world, const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  EXPECT_EQ(world.write_artifacts(dir), "");
  obs::ReadOptions opt;
  opt.perfetto = dir + "/perfetto.json";
  std::FILE* sink = std::tmpfile();
  const obs::ReadResult r = obs::timeline(dir, opt, sink);
  std::fclose(sink);
  EXPECT_EQ(r.status, obs::ReadStatus::kOk) << r.diagnostic;
  std::ifstream in(opt.perfetto, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A 2-rank exchange (notified put, flush, eager send) with msgtrace on,
/// rendered.
std::string run_rendered() {
  WorldParams wp;
  wp.obs.msgtrace = true;
  World world(2, wp);
  world.run([](Rank& self) {
    auto win = self.win_allocate(64, 1);
    if (self.id() == 0) {
      double v = 1.0;
      self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 0, 3);
      win->flush(1);
      self.send(&v, 8, 1, 4);
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 3}, 1);
      self.na().start(req);
      self.na().wait(req);
      double v = 0;
      self.recv(&v, 8, 0, 4);
    }
    self.barrier();
  });
  return render(world, "trace_rendered");
}

}  // namespace

TEST(Trace, JsonContainsExpectedCategoriesAndShape) {
  const std::string json = run_rendered();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"msgtrace\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"put_notify\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"eager_send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"put_notify match_hit\""), std::string::npos);
  EXPECT_NE(json.find("rank 0"), std::string::npos);
  EXPECT_NE(json.find("rank 1"), std::string::npos);
  EXPECT_TRUE(json::parse(json).ok);
}

// Chrome/Perfetto flow semantics: every flow start (ph:"s") needs a flow end
// (ph:"f") with the same id, and the end must bind to the enclosing slice
// ("bp":"e") or the arrow is dropped by the renderer. The rendered trace
// gives each arrow end a slice: both ends lie inside a slice on their own
// rank's track. Checked on the parsed document, not by substring: the
// shape has regressed silently before.
TEST(Trace, FlowEventsPairUpAndBindEnclosing) {
  const json::ParseResult doc = json::parse(run_rendered());
  ASSERT_TRUE(doc.ok) << doc.error;
  const json::Array& events = doc.value["traceEvents"].as_array();
  std::map<std::int64_t, std::vector<std::pair<double, double>>> slices;
  for (const json::Value& e : events)
    if (e.string_or("ph", "") == "X")
      slices[e["tid"].as_int()].push_back(
          {e.number_or("ts", -1),
           e.number_or("ts", -1) + e.number_or("dur", 0)});
  std::map<std::int64_t, int> starts, ends;
  for (const json::Value& e : events) {
    const std::string ph = e.string_or("ph", "");
    if (ph != "s" && ph != "f") continue;
    const json::Value& id = e["id"];
    ASSERT_TRUE(id.is_number()) << "flow event without numeric id";
    EXPECT_TRUE(e["pid"].is_number());
    ASSERT_TRUE(e["tid"].is_number());
    ASSERT_TRUE(e["ts"].is_number());
    if (ph == "s") {
      ++starts[id.as_int()];
    } else {
      ++ends[id.as_int()];
      EXPECT_EQ(e.string_or("bp", ""), "e")
          << "flow end " << id.as_int() << " lacks bp:e";
    }
    const double ts = e["ts"].as_number();
    bool bound = false;
    for (const auto& [b, end] : slices[e["tid"].as_int()])
      bound = bound || (b <= ts && ts <= end);
    EXPECT_TRUE(bound) << "flow " << ph << " " << id.as_int() << " at " << ts
                       << " us has no slice on its track";
  }
  EXPECT_FALSE(starts.empty());
  EXPECT_EQ(starts, ends);  // same ids, same multiplicity
}

// Host-time gauges (the profiler's obs.phase_* / obs.profile_*,
// sim.run_wall_ns, sim.events_per_sec) stay out of the flight recorder, so
// the rendered trace is a function of virtual time alone: two same-seed
// profiled runs of the 4-rank notified stencil render byte-identical files.
TEST(Trace, SameSeedProfiledRunsTraceIdentically) {
  auto rendered = [] {
    WorldParams wp;
    wp.obs.msgtrace = wp.obs.timeseries = true;
    World world(4, wp);
    world.enable_profiling();
    apps::StencilConfig cfg;
    cfg.rows = 64;
    cfg.total_cols = 256;
    cfg.iters = 4;
    world.run([&](Rank& self) { apps::run_stencil(self, cfg); });
    return render(world, "trace_stencil");
  };
  const std::string first = rendered();
  EXPECT_EQ(first, rendered()) << "same-seed traces differ";
  EXPECT_NE(first.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(first.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_EQ(first.find("obs.phase_"), std::string::npos);
  EXPECT_EQ(first.find("sim.run_wall_ns"), std::string::npos);
}

TEST(Trace, DynamicNamesAreInterned) {
  sim::Tracer t(1);
  for (int i = 0; i < 100; ++i)
    t.counter(0, "test", std::string("probe ") + std::to_string(i % 4),
              us(i + 1), i);
  // 100 events, 4 distinct dynamic strings stored.
  EXPECT_EQ(t.event_count(), 100u);
  EXPECT_EQ(t.interned_count(), 4u);
}

TEST(Trace, SpanAndFlowApi) {
  sim::Tracer t(2);
  t.span(0, "test", "work", us(1), us(3));
  t.flow(0, 1, "test", "msg", us(1), us(2), 7);
  EXPECT_EQ(t.event_count(), 3u);  // span + flow start/end
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"dur\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":7"),
            std::string::npos);
}

// Names and categories may come from documents the reader did not write:
// each is quoted, so it comes back unchanged through the parser.
TEST(Trace, EscapesSuspiciousNames) {
  const std::string name = "quote\"back\\slash\n";
  const std::string category = "cat\"\\\n";
  sim::Tracer t(1);
  t.span(0, category.c_str(), name, us(1), us(1));
  const json::ParseResult doc = json::parse(t.to_json());
  ASSERT_TRUE(doc.ok) << doc.error;
  const json::Value& span = doc.value["traceEvents"][1];
  EXPECT_EQ(span.string_or("name", ""), name);
  EXPECT_EQ(span.string_or("cat", ""), category);
}

TEST(Trace, OutOfRangeRankAborts) {
  sim::Tracer t(2);
  EXPECT_DEATH(t.span(2, "test", "beyond", us(1), us(1)),
               "out-of-range rank");
  EXPECT_DEATH(t.counter(-1, "test", "negative", us(1), 0),
               "out-of-range rank");
}

TEST(Trace, CounterSamplesRenderAsCounterEvents) {
  sim::Tracer t(1);
  t.counter(0, "obs", "na.uq_depth (rank 0)", us(1), 3.0);
  t.counter(0, "obs", "na.uq_depth (rank 0)", us(2), 5.0);
  EXPECT_EQ(t.event_count(), 2u);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("na.uq_depth (rank 0)"), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  EXPECT_NE(json.find("\"value\":5"), std::string::npos);
}
