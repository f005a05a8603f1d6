// Tests of the unified metrics layer: registry/handle semantics, the stable
// narma.metrics.v1 JSON schema, the gauge -> tracer counter-track bridge,
// and the fully disabled path (ObsParams::metrics = false).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "common/json.hpp"
#include "core/world.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

using namespace narma;

namespace {

/// Runs a tiny 2-rank exchange that exercises na, mp, rma, and net, so every
/// layer's bound metrics see traffic.
void run_small_exchange(World& world) {
  world.run([](Rank& self) {
    auto win = self.win_allocate(64, 1);
    if (self.id() == 0) {
      double v = 4.25;
      self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 0, 3);
      win->flush(1);
      self.send(&v, 8, 1, 4);
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 3}, 1);
      self.na().start(req);
      self.na().wait(req);
      double v = 0;
      self.recv(&v, 8, 0, 4);
      EXPECT_EQ(v, 4.25);
    }
    self.barrier();
  });
}

}  // namespace

TEST(ObsRegistry, CounterGaugeHistogramSemantics) {
  obs::Registry reg(2);
  obs::Counter c = reg.counter("t.events", 0);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.counter_value("t.events", 0), 42u);
  EXPECT_EQ(reg.counter_value("t.events", 1), 0u);  // per-rank cells

  obs::Gauge g = reg.gauge("t.depth", 1);
  g.set(5, ns(10));
  g.set(2, ns(20));
  g.add(1, ns(30));
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.high_water(), 5);
  EXPECT_EQ(reg.gauge_value("t.depth", 1), 3);
  EXPECT_EQ(reg.gauge_high_water("t.depth", 1), 5);

  obs::Histogram h = reg.histogram("t.lat", 0);
  h.record(0);
  h.record(1);
  h.record(6);  // bit_width 3 -> bucket [4,7]
  const obs::HistData* d = h.data();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 3u);
  EXPECT_EQ(d->sum, 7u);
  EXPECT_EQ(d->min, 0u);
  EXPECT_EQ(d->max, 6u);
  EXPECT_EQ(d->buckets[0], 1u);  // the zero sample
  EXPECT_EQ(d->buckets[1], 1u);  // 1
  EXPECT_EQ(d->buckets[3], 1u);  // 6

  // Re-fetching a family yields the same cell; re-registering with another
  // kind is a fatal misuse.
  reg.counter("t.events", 0).inc();
  EXPECT_EQ(reg.counter_value("t.events", 0), 43u);
  EXPECT_DEATH(reg.gauge("t.events", 0), "different kind");
}

TEST(ObsRegistry, DisengagedHandlesAreNoops) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  c.inc();
  g.set(7, ns(1));
  h.record(9);
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.high_water(), 0);
  EXPECT_EQ(h.data(), nullptr);
}

TEST(ObsRegistry, JsonIsParseableAndSchemaStable) {
  obs::Registry reg(2);
  reg.counter("a.count", 0).inc(3);
  obs::Gauge g = reg.gauge("b.depth", 1);
  g.set(9, ns(5));
  g.set(4, ns(6));
  reg.histogram("c.lat", 0).record(6);

  const json::ParseResult doc = json::parse(reg.to_json());
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.value.string_or("schema", ""), "narma.metrics.v1");
  EXPECT_EQ(doc.value.number_or("nranks", 0), 2.0);

  const json::Array& metrics = doc.value["metrics"].as_array();
  ASSERT_EQ(metrics.size(), 3u);  // lexicographic family order
  EXPECT_EQ(metrics[0].string_or("name", ""), "a.count");
  EXPECT_EQ(metrics[0].string_or("kind", ""), "counter");
  EXPECT_EQ(metrics[0]["per_rank"][0].number_or("value", -1), 3.0);

  EXPECT_EQ(metrics[1].string_or("kind", ""), "gauge");
  EXPECT_EQ(metrics[1]["per_rank"][1].number_or("value", -1), 4.0);
  EXPECT_EQ(metrics[1]["per_rank"][1].number_or("high_water", -1), 9.0);

  EXPECT_EQ(metrics[2].string_or("kind", ""), "histogram");
  const json::Value& h0 = metrics[2]["per_rank"][0];
  EXPECT_EQ(h0.number_or("count", -1), 1.0);
  EXPECT_EQ(h0.number_or("sum", -1), 6.0);
  const json::Value& bucket = h0["buckets"][0];
  EXPECT_EQ(bucket.number_or("lo", -1), 4.0);
  EXPECT_EQ(bucket.number_or("hi", -1), 7.0);
  EXPECT_EQ(bucket.number_or("count", -1), 1.0);
}

TEST(ObsRegistry, HistogramQuantileInterpolates) {
  obs::HistData empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  // A degenerate distribution (every sample equal) must report the exact
  // value at every q, not the covering bucket's floor.
  obs::HistData one;
  for (int i = 0; i < 100; ++i) one.record(6);
  EXPECT_EQ(one.quantile(0.0), 6.0);
  EXPECT_EQ(one.quantile(0.5), 6.0);
  EXPECT_EQ(one.quantile(0.99), 6.0);
  EXPECT_EQ(one.quantile(1.0), 6.0);

  // Quantiles are monotone in q and clamped to the observed range.
  obs::HistData h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  double prev = h.quantile(0.0);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double cur = h.quantile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 1000.0);
  // The median of 1..1000 lands near 500 (log2 buckets are coarse, so only
  // the covering bucket [256,511] is guaranteed).
  EXPECT_GE(h.quantile(0.5), 256.0);
  EXPECT_LE(h.quantile(0.5), 512.0);
}

// Samples >= 2^63 have bit_width 64: they land in the top bucket, whose
// JSON bounds are [2^63, 2^64 - 1].
TEST(ObsRegistry, HistogramTopBucketHoldsLargestSamples) {
  obs::Registry reg(1);
  obs::Histogram hist = reg.histogram("c.big", 0);
  hist.record(1ull << 63);
  hist.record(~0ull);
  const obs::HistData& h = *hist.data();
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.buckets[64], 2u);
  EXPECT_EQ(h.buckets[63], 0u);
  EXPECT_EQ(h.min, 1ull << 63);
  EXPECT_EQ(h.max, ~0ull);
  EXPECT_EQ(h.quantile(0.0), 9223372036854775808.0);
  EXPECT_EQ(h.quantile(1.0), static_cast<double>(~0ull));

  // Checked on the raw text: 2^64 - 1 does not survive a trip through a
  // double-valued JSON reader.
  const std::string doc = reg.to_json();
  EXPECT_NE(doc.find("\"buckets\":[{\"lo\":9223372036854775808,"
                     "\"hi\":18446744073709551615,\"count\":2}]"),
            std::string::npos)
      << doc;
  EXPECT_TRUE(json::parse(doc).ok);
}

TEST(ObsRegistry, JsonCarriesHistogramPercentiles) {
  obs::Registry reg(1);
  obs::Histogram h = reg.histogram("c.lat", 0);
  for (int i = 0; i < 32; ++i) h.record(100);
  const json::ParseResult doc = json::parse(reg.to_json());
  ASSERT_TRUE(doc.ok) << doc.error;
  const json::Value& cell = doc.value["metrics"][0]["per_rank"][0];
  EXPECT_EQ(cell.number_or("p50", -1), 100.0);
  EXPECT_EQ(cell.number_or("p90", -1), 100.0);
  EXPECT_EQ(cell.number_or("p99", -1), 100.0);
}

TEST(ObsRegistry, GaugeChangesMirrorToTracerCounterTrack) {
  sim::Tracer tracer(2);
  obs::Registry reg(2);
  reg.set_tracer(&tracer);
  obs::Gauge g = reg.gauge("q.depth", 1);
  g.set(2, us(1));
  g.set(2, us(2));  // unchanged -> no extra sample
  g.set(7, us(3));
  EXPECT_EQ(tracer.event_count(), 2u);
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("q.depth (rank 1)"), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
}

TEST(ObsWorld, RunPopulatesLayerMetricsAndDump) {
  World world(2);
  run_small_exchange(world);

  obs::Registry* reg = world.metrics();
  ASSERT_NE(reg, nullptr);
  // One representative family per instrumented layer.
  for (const char* name :
       {"na.tests", "na.matches", "na.uq_depth", "na.match_probes",
        "mp.sends_eager", "mp.recvs", "rma.puts", "rma.flushes",
        "net.fma_ops", "net.fma_bytes", "net.dest_cq_depth",
        "net.chan_queue_ns", "sim.events_executed", "sim.busy_ns",
        "sim.total_ns"}) {
    EXPECT_TRUE(reg->has(name)) << "missing metric family: " << name;
  }
  EXPECT_GE(reg->counter_value("rma.flushes", 0), 1u);
  EXPECT_GE(reg->counter_value("na.matches", 1), 1u);
  EXPECT_GT(reg->counter_value("sim.events_executed", 0), 0u);
  // Busy + blocked account for each rank's whole timeline.
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(reg->gauge_value("sim.busy_ns", r) +
                  reg->gauge_value("sim.blocked_ns", r),
              reg->gauge_value("sim.total_ns", r));
  }

  const std::string dir = testing::TempDir() + "obs_metrics_run";
  ASSERT_EQ(world.write_artifacts(dir), "");
  const json::ParseResult doc = json::parse_file(dir + "/metrics.json");
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.value.string_or("schema", ""), "narma.metrics.v1");
  EXPECT_EQ(doc.value.number_or("nranks", 0), 2.0);
  std::set<std::string> names;
  for (const json::Value& fam : doc.value["metrics"].as_array())
    names.insert(fam.string_or("name", ""));
  EXPECT_TRUE(names.count("na.uq_depth"));
  EXPECT_TRUE(names.count("net.dest_cq_depth"));
}

TEST(ObsWorld, TracedRunEmitsGaugeCounterTracks) {
  WorldParams wp;
  wp.obs.trace = true;
  World world(2, wp);
  run_small_exchange(world);
  const std::string json = world.tracer()->to_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("net.dest_cq_depth (rank 1)"), std::string::npos);
}

// Full round trip: write_artifacts -> file -> json reader -> every family and
// cell equals the live registry. Guards the exporter against silently
// dropping or mangling values the report tool would then mis-rank.
TEST(ObsWorld, DumpRoundTripsAgainstLiveRegistry) {
  World world(2);
  run_small_exchange(world);
  const obs::Registry& reg = *world.metrics();

  const std::string dir = testing::TempDir() + "obs_roundtrip_run";
  ASSERT_EQ(world.write_artifacts(dir), "");
  const json::ParseResult doc = json::parse_file(dir + "/metrics.json");
  ASSERT_TRUE(doc.ok) << doc.error;

  const std::vector<std::string> live = reg.names();
  const json::Array& metrics = doc.value["metrics"].as_array();
  ASSERT_EQ(metrics.size(), live.size());

  std::set<std::string> dumped;
  for (const json::Value& m : metrics) {
    const std::string name = m.string_or("name", "");
    dumped.insert(name);
    ASSERT_TRUE(reg.has(name)) << "dump invented metric " << name;
    const std::string kind = m.string_or("kind", "");
    const json::Array& per_rank = m["per_rank"].as_array();
    ASSERT_EQ(per_rank.size(), 2u) << name;
    for (const json::Value& cell : per_rank) {
      const int rank = static_cast<int>(cell.number_or("rank", -1));
      if (kind == "counter") {
        EXPECT_EQ(cell.number_or("value", -1),
                  static_cast<double>(reg.counter_value(name, rank)))
            << name;
      } else if (kind == "gauge") {
        EXPECT_EQ(cell.number_or("value", -1),
                  static_cast<double>(reg.gauge_value(name, rank)))
            << name;
        EXPECT_EQ(cell.number_or("high_water", -1),
                  static_cast<double>(reg.gauge_high_water(name, rank)))
            << name;
      } else if (kind == "histogram") {
        const obs::HistData* h = reg.hist_data(name, rank);
        ASSERT_NE(h, nullptr) << name;
        EXPECT_EQ(cell.number_or("count", -1),
                  static_cast<double>(h->count)) << name;
        EXPECT_EQ(cell.number_or("sum", -1), static_cast<double>(h->sum))
            << name;
        EXPECT_EQ(cell.number_or("min", -1), static_cast<double>(h->min))
            << name;
        EXPECT_EQ(cell.number_or("max", -1), static_cast<double>(h->max))
            << name;
        // Dumped buckets are exactly the non-empty ones, and they cover
        // every recorded sample.
        double bucket_total = 0;
        for (const json::Value& b : cell["buckets"].as_array()) {
          EXPECT_GT(b.number_or("count", 0), 0.0) << name;
          bucket_total += b.number_or("count", 0);
        }
        EXPECT_EQ(bucket_total, static_cast<double>(h->count)) << name;
      } else {
        FAIL() << "unknown kind '" << kind << "' for " << name;
      }
    }
  }
  for (const std::string& n : live)
    EXPECT_TRUE(dumped.count(n)) << "dump dropped metric " << n;
}

TEST(ObsWorld, DisabledMetricsStillRuns) {
  WorldParams wp;
  wp.obs.metrics = false;
  World world(2, wp);
  run_small_exchange(world);
  EXPECT_EQ(world.metrics(), nullptr);
  // The run directory then holds no metrics.json (only the journal).
  const std::string dir = testing::TempDir() + "obs_disabled_run";
  ASSERT_EQ(world.write_artifacts(dir), "");
  std::FILE* f = std::fopen((dir + "/metrics.json").c_str(), "r");
  EXPECT_EQ(f, nullptr);
  if (f) std::fclose(f);
}
