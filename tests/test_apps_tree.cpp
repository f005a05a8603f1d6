// Integration tests of the k-ary tree reduction: every variant computes the
// analytic sum across rank counts, arities, and message sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/tree.hpp"

using namespace narma;
using namespace narma::apps;

struct TreeCase {
  int ranks;
  int arity;
  std::size_t elems;
  TreeVariant variant;
};

class TreeAll : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreeAll, SumVerifies) {
  const auto [ranks, arity, elems, variant] = GetParam();
  World world(ranks);
  TreeResult res;
  world.run([&](Rank& self) {
    TreeConfig cfg;
    cfg.elems = elems;
    cfg.arity = arity;
    cfg.reps = 2;
    cfg.variant = variant;
    const auto r = run_tree(self, cfg);
    if (self.id() == 0) res = r;
  });
  EXPECT_TRUE(res.verified) << "root sum " << res.result0;
  EXPECT_GT(res.per_op_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeAll,
    ::testing::Values(
        TreeCase{1, 16, 1, TreeVariant::kNotified},
        TreeCase{2, 16, 1, TreeVariant::kMessagePassing},
        TreeCase{2, 16, 1, TreeVariant::kNotified},
        TreeCase{5, 2, 4, TreeVariant::kMessagePassing},
        TreeCase{5, 2, 4, TreeVariant::kPscw},
        TreeCase{5, 2, 4, TreeVariant::kNotified},
        TreeCase{5, 2, 4, TreeVariant::kVendorReduce},
        TreeCase{17, 16, 1, TreeVariant::kMessagePassing},
        TreeCase{17, 16, 1, TreeVariant::kPscw},
        TreeCase{17, 16, 1, TreeVariant::kNotified},
        TreeCase{17, 16, 1, TreeVariant::kVendorReduce},
        TreeCase{33, 16, 16, TreeVariant::kNotified},
        TreeCase{33, 16, 16, TreeVariant::kVendorReduce},
        TreeCase{20, 3, 8, TreeVariant::kNotified},
        TreeCase{20, 3, 8, TreeVariant::kPscw}),
    [](const auto& info) {
      std::string name = std::string(to_string(info.param.variant)) + "_r" +
                         std::to_string(info.param.ranks) + "_k" +
                         std::to_string(info.param.arity) + "_e" +
                         std::to_string(info.param.elems);
      std::erase_if(name, [](char c) { return !std::isalnum(c) && c != '_'; });
      return name;
    });

TEST(TreePerf, NotifiedCountingBeatsMessagePassing) {
  auto time_of = [](TreeVariant v) {
    World world(17);  // root + 16 children: one full 16-ary level
    double t = 0;
    world.run([&](Rank& self) {
      TreeConfig cfg;
      cfg.elems = 1;
      cfg.arity = 16;
      cfg.reps = 5;
      cfg.variant = v;
      const auto r = run_tree(self, cfg);
      if (self.id() == 0) t = r.per_op_us;
    });
    return t;
  };
  const double na = time_of(TreeVariant::kNotified);
  const double mp = time_of(TreeVariant::kMessagePassing);
  const double pscw = time_of(TreeVariant::kPscw);
  EXPECT_LT(na, mp);    // paper Fig. 4c: NA fastest for small messages
  EXPECT_LT(na, pscw);
}

TEST(TreeEdge, SingleRankTrivial) {
  World world(1);
  TreeResult res;
  world.run([&](Rank& self) {
    TreeConfig cfg;
    cfg.variant = TreeVariant::kMessagePassing;
    const auto r = run_tree(self, cfg);
    res = r;
  });
  EXPECT_TRUE(res.verified);
  EXPECT_DOUBLE_EQ(res.result0, 1.0);
}

// The fault-tolerant path exists only for NA puts, and a rank's checkpoint
// needs a partner rank to live on.
TEST(TreeEdge, FtPreconditionsAbort) {
  auto run_ft = [](int ranks, TreeVariant v) {
    World world(ranks);
    world.run([&](Rank& self) {
      TreeConfig cfg;
      cfg.variant = v;
      cfg.ft.enabled = true;
      run_tree(self, cfg);
    });
  };
  EXPECT_DEATH(run_ft(3, TreeVariant::kPscw),
               "requires the NotifiedAccess variant");
  EXPECT_DEATH(run_ft(1, TreeVariant::kNotified), "needs >= 2 ranks");
}

// Equivalence oracle: every rank's final virtual clock (ps) and the root's
// sum, pinned for every variant and for the fault-tolerant NA path,
// fault-free and with one seeded fail-stop. Fault seed 4 kills rank 1 at
// the end of epoch 3 (the plan test_ft_recovery pins).
struct TreePin {
  const char* name;
  int ranks;
  TreeConfig cfg;
  double fail_rate;
  std::uint64_t fault_seed;
  double result0;
  std::vector<Time> clocks;
};

TEST(TreeOracle, PinnedClocksAndSum) {
  auto with = [](TreeVariant v) {
    TreeConfig c;
    c.elems = 4;
    c.arity = 2;
    c.reps = 3;
    c.variant = v;
    return c;
  };
  TreeConfig ftc;
  ftc.elems = 8;
  ftc.arity = 2;
  ftc.reps = 5;
  ftc.variant = TreeVariant::kNotified;
  ftc.ft.enabled = true;
  ftc.ft.ckpt_interval = 2;
  ftc.ft.min_fail_epoch = 3;
  const std::vector<TreePin> table = {
      {"mp_r6", 6, with(TreeVariant::kMessagePassing), 0, 0, 21,
       {52711565, 51220795, 52167620, 52167620, 53114445, 51764740}},
      {"pscw_r6", 6, with(TreeVariant::kPscw), 0, 0, 21,
       {64072630, 62581860, 63528685, 63528685, 64475510, 63125805}},
      {"na_r6", 6, with(TreeVariant::kNotified), 0, 0, 21,
       {51183510, 49692740, 50639565, 50639565, 51586390, 50236685}},
      {"vendor_r6", 6, with(TreeVariant::kVendorReduce), 0, 0, 21,
       {50752900, 49262130, 50208955, 50208955, 51155780, 49806075}},
      {"na_ft_r6", 6, ftc, 0, 0, 21,
       {140056230, 141003055, 139512285, 140459110, 140459110, 141405935}},
      {"na_ft_fail_r6", 6, ftc, 0.2, 4, 21,
       {203615125, 204561950, 203071180, 204018005, 204018005, 204964830}},
  };
  for (const TreePin& pin : table) {
    SCOPED_TRACE(pin.name);
    WorldParams wp;
    wp.fabric.faults.fail_rate = pin.fail_rate;
    if (pin.fault_seed != 0) wp.fabric.faults.seed = pin.fault_seed;
    World world(pin.ranks, wp);
    double result0 = 0;
    world.run([&](Rank& self) {
      const TreeResult r = run_tree(self, pin.cfg);
      if (self.id() == 0) result0 = r.result0;
    });
    std::vector<Time> clocks;
    for (int r = 0; r < pin.ranks; ++r)
      clocks.push_back(world.engine().rank(r).now());
    EXPECT_EQ(result0, pin.result0);
    EXPECT_EQ(clocks, pin.clocks);
  }
}
