// Same-seed metrics identity: two runs of one configuration produce the
// same narma.metrics.v1 dump, family for family, outside the host-time
// families (obs.*, sim.run_wall_ns, sim.events_per_sec). Virtual time is
// the simulator's output, so no workload counter, gauge or histogram may
// depend on the host. The dumps are compared as JSON through common/json,
// i.e. exactly what `narma_cli --metrics` writes, for the 4-rank notified
// stencil and for its fault-tolerant leg with one fail-stop, which adds the
// unexpected queue's checkpoint traffic and the replay log.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>

#include "apps/stencil.hpp"
#include "common/json.hpp"
#include "core/world.hpp"

using namespace narma;

namespace {

bool host_family(const std::string& name) {
  return name.starts_with("obs.") || name == "sim.run_wall_ns" ||
         name == "sim.events_per_sec";
}

bool same(const json::Value& a, const json::Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case json::Value::Kind::kNull:
      return true;
    case json::Value::Kind::kBool:
      return a.as_bool() == b.as_bool();
    case json::Value::Kind::kNumber:
      return a.as_number() == b.as_number();
    case json::Value::Kind::kString:
      return a.as_string() == b.as_string();
    case json::Value::Kind::kArray: {
      const json::Array& x = a.as_array();
      const json::Array& y = b.as_array();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i)
        if (!same(x[i], y[i])) return false;
      return true;
    }
    case json::Value::Kind::kObject: {
      const json::Object& x = a.as_object();
      const json::Object& y = b.as_object();
      if (x.size() != y.size()) return false;
      for (auto xi = x.begin(), yi = y.begin(); xi != x.end(); ++xi, ++yi)
        if (xi->first != yi->first || !same(xi->second, yi->second))
          return false;
      return true;
    }
  }
  return false;
}

/// The workload families of one run's metrics dump, keyed by name. The
/// configuration is the CI observability smoke's: 64x256 points, 4
/// iterations, 800 ps per point.
std::map<std::string, json::Value> run_families(bool ft) {
  apps::StencilConfig cfg;
  cfg.rows = 64;
  cfg.total_cols = 256;
  cfg.iters = 4;
  cfg.per_point = 800;
  cfg.variant = apps::StencilVariant::kNotified;
  WorldParams wp;
  if (ft) {
    // The CI fail-stop leg: one failure at epoch 3, rollback to epoch 2.
    cfg.ft.enabled = true;
    cfg.ft.ckpt_interval = 2;
    cfg.ft.min_fail_epoch = 3;
    wp.fabric.faults.fail_rate = 1.0;
  }
  World world(4, wp);
  bool verified = false;
  world.run([&](Rank& self) {
    const apps::StencilResult r = apps::run_stencil(self, cfg);
    if (self.id() == 0) verified = r.verified;
  });
  EXPECT_TRUE(verified);
  const json::ParseResult doc = json::parse(world.metrics()->to_json());
  EXPECT_TRUE(doc.ok) << doc.error << " at byte " << doc.error_pos;
  EXPECT_EQ(doc.value["schema"].as_string(), "narma.metrics.v1");
  std::map<std::string, json::Value> fams;
  for (const json::Value& f : doc.value["metrics"].as_array()) {
    const std::string& name = f["name"].as_string();
    if (!host_family(name)) fams.emplace(name, f);
  }
  return fams;
}

void expect_identical(bool ft) {
  const auto a = run_families(ft);
  const auto b = run_families(ft);
  EXPECT_GT(a.size(), 20u) << "too few workload families to compare";
  for (const auto& [name, fam] : a) {
    const auto it = b.find(name);
    if (it == b.end()) {
      ADD_FAILURE() << name << " missing from the second run";
      continue;
    }
    EXPECT_TRUE(same(fam, it->second)) << name << " differs between runs";
  }
  for (const auto& [name, fam] : b)
    EXPECT_TRUE(a.count(name)) << name << " missing from the first run";
}

}  // namespace

TEST(MetricsIdentity, SameSeedStencilRunsDumpIdenticalFamilies) {
  expect_identical(false);
}

TEST(MetricsIdentity, SameSeedFailStopStencilRunsDumpIdenticalFamilies) {
  const auto fams = run_families(true);
  ASSERT_TRUE(fams.count("ft.fails"));
  double fails = 0;
  for (const json::Value& cell : fams.at("ft.fails")["per_rank"].as_array())
    fails += cell["value"].as_number();
  EXPECT_EQ(fails, 1.0);  // the leg really took its fail-stop
  expect_identical(true);
}
