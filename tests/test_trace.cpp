// Tests of the virtual-time tracer: events recorded by the communication
// layers, Chrome trace-event JSON output, and the zero-overhead-off path.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "apps/stencil.hpp"
#include "common/json.hpp"
#include "core/world.hpp"
#include "sim/trace.hpp"

using namespace narma;

namespace {

std::string run_traced(std::size_t* events) {
  WorldParams wp;
  wp.obs.trace = true;
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
  *events = world.tracer()->event_count();
  return world.tracer()->to_json();
}

}  // namespace

TEST(Trace, RecordsCommunicationEvents) {
  std::size_t events = 0;
  const std::string json = run_traced(&events);
  EXPECT_GT(events, 6u);  // puts, ctrl msgs, waits, send/recv spans
}

TEST(Trace, JsonContainsExpectedCategoriesAndShape) {
  std::size_t events = 0;
  const std::string json = run_traced(&events);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"rdma\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"na\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"mp\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"ctrl\""), std::string::npos);
  EXPECT_NE(json.find("rank 0"), std::string::npos);
  EXPECT_NE(json.find("rank 1"), std::string::npos);
  // Flow arrows come in start/end pairs.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Balanced braces (cheap well-formedness check).
  long depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// Chrome/Perfetto flow semantics: every flow start (ph:"s") needs a flow end
// (ph:"f") with the same id, and the end must bind to the enclosing slice
// ("bp":"e") or the arrow is dropped by the renderer. Checked on the parsed
// document, not by substring: the shape has regressed silently before.
TEST(Trace, FlowEventsPairUpAndBindEnclosing) {
  std::size_t events = 0;
  const json::ParseResult doc = json::parse(run_traced(&events));
  ASSERT_TRUE(doc.ok) << doc.error;
  std::map<std::int64_t, int> starts, ends;
  for (const json::Value& e : doc.value["traceEvents"].as_array()) {
    const std::string ph = e.string_or("ph", "");
    if (ph != "s" && ph != "f") continue;
    const json::Value& id = e["id"];
    ASSERT_TRUE(id.is_number()) << "flow event without numeric id";
    // Flow events ride a real slice: tid/pid/ts all present.
    EXPECT_TRUE(e["pid"].is_number());
    EXPECT_TRUE(e["tid"].is_number());
    EXPECT_TRUE(e["ts"].is_number());
    if (ph == "s") {
      ++starts[id.as_int()];
    } else {
      ++ends[id.as_int()];
      EXPECT_EQ(e.string_or("bp", ""), "e")
          << "flow end " << id.as_int() << " lacks bp:e";
    }
  }
  EXPECT_FALSE(starts.empty());
  EXPECT_EQ(starts, ends);  // same ids, same multiplicity
}

TEST(Trace, DynamicNamesAreInterned) {
  sim::Tracer t(1);
  for (int i = 0; i < 100; ++i)
    t.instant(0, "test", std::string("probe ") + std::to_string(i % 4),
              us(i + 1));
  // 100 events, 4 distinct dynamic strings stored.
  EXPECT_EQ(t.event_count(), 100u);
  EXPECT_EQ(t.interned_count(), 4u);
}

TEST(Trace, DisabledByDefault) {
  World world(2);
  world.run([](Rank& self) {
    if (self.id() == 0) {
      int v = 1;
      self.send(&v, 4, 1, 1);
    } else {
      int v = 0;
      self.recv(&v, 4, 0, 1);
    }
  });
  EXPECT_EQ(world.tracer(), nullptr);
  // The run directory then holds no trace.json.
  const std::string dir = testing::TempDir() + "trace_disabled_run";
  ASSERT_EQ(world.write_artifacts(dir), "");
  std::FILE* f = std::fopen((dir + "/trace.json").c_str(), "r");
  EXPECT_EQ(f, nullptr);
  if (f) std::fclose(f);
}

TEST(Trace, RunDirectoryHoldsTraceJson) {
  WorldParams wp;
  wp.obs.trace = true;
  World world(1, wp);
  world.run([](Rank& self) { self.barrier(); });
  const std::string dir = testing::TempDir() + "trace_run";
  ASSERT_EQ(world.write_artifacts(dir), "");
  const json::ParseResult doc = json::parse_file(dir + "/trace.json");
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_TRUE(doc.value["traceEvents"].is_array());
}

// Host-time gauges (the profiler's obs.phase_* / obs.profile_*,
// sim.run_wall_ns, sim.events_per_sec) are not mirrored as counter events,
// so the trace is a function of virtual time alone: two same-seed traced
// and profiled runs of the 4-rank notified stencil are byte-identical.
TEST(Trace, SameSeedProfiledRunsTraceIdentically) {
  auto traced = [] {
    WorldParams wp;
    wp.obs.trace = true;
    World world(4, wp);
    world.enable_profiling();
    apps::StencilConfig cfg;
    cfg.rows = 64;
    cfg.total_cols = 256;
    cfg.iters = 4;
    world.run([&](Rank& self) { apps::run_stencil(self, cfg); });
    return world.tracer()->to_json();
  };
  const std::string first = traced();
  EXPECT_EQ(first, traced()) << "same-seed traces differ";
  EXPECT_NE(first.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_EQ(first.find("obs.phase_"), std::string::npos);
  EXPECT_EQ(first.find("sim.run_wall_ns"), std::string::npos);
}

TEST(Trace, SpanAndInstantApi) {
  sim::Tracer t(2);
  t.span(0, "test", "work", us(1), us(3));
  t.instant(1, "test", "marker", us(2));
  t.flow(0, 1, "test", "msg", us(1), us(2));
  EXPECT_EQ(t.event_count(), 4u);  // span + instant + flow start/end
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"dur\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(Trace, EscapesSuspiciousNames) {
  sim::Tracer t(1);
  t.instant(0, "test", "quote\"back\\slash\n", us(1));
  const std::string json = t.to_json();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(Trace, OutOfRangeRankAborts) {
  sim::Tracer t(2);
  EXPECT_DEATH(t.instant(2, "test", "beyond", us(1)), "out-of-range rank");
  EXPECT_DEATH(t.instant(-1, "test", "negative", us(1)),
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
