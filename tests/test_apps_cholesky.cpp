// Integration tests of the task-based Cholesky: every synchronization
// variant must produce a factor with a tiny residual across rank counts and
// tile shapes, and the distributed factor must equal the sequential
// reference.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "apps/cholesky.hpp"
#include "linalg/matrix.hpp"

using namespace narma;
using namespace narma::apps;

struct CholCase {
  int ranks;
  int nt;
  int b;
  CholeskyVariant variant;
};

class CholAll : public ::testing::TestWithParam<CholCase> {};

TEST_P(CholAll, ResidualTiny) {
  const auto [ranks, nt, b, variant] = GetParam();
  World world(ranks);
  CholeskyResult res;
  world.run([&](Rank& self) {
    CholeskyConfig cfg;
    cfg.nt = nt;
    cfg.b = b;
    cfg.variant = variant;
    const auto r = run_cholesky(self, cfg);
    if (self.id() == 0) res = r;
  });
  EXPECT_TRUE(res.verified) << "residual " << res.residual;
  EXPECT_LT(res.residual, 1e-10);
  EXPECT_GE(res.residual, 0.0);
  EXPECT_GT(res.gflops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CholAll,
    ::testing::Values(CholCase{1, 4, 8, CholeskyVariant::kMessagePassing},
                      CholCase{2, 4, 8, CholeskyVariant::kMessagePassing},
                      CholCase{2, 4, 8, CholeskyVariant::kOneSided},
                      CholCase{2, 4, 8, CholeskyVariant::kNotified},
                      CholCase{3, 6, 8, CholeskyVariant::kMessagePassing},
                      CholCase{3, 6, 8, CholeskyVariant::kOneSided},
                      CholCase{3, 6, 8, CholeskyVariant::kNotified},
                      CholCase{4, 8, 16, CholeskyVariant::kMessagePassing},
                      CholCase{4, 8, 16, CholeskyVariant::kOneSided},
                      CholCase{4, 8, 16, CholeskyVariant::kNotified},
                      CholCase{5, 7, 8, CholeskyVariant::kNotified},
                      CholCase{8, 8, 8, CholeskyVariant::kNotified}),
    [](const auto& info) {
      return std::string(to_string(info.param.variant)) + "_r" +
             std::to_string(info.param.ranks) + "_nt" +
             std::to_string(info.param.nt) + "_b" +
             std::to_string(info.param.b);
    });

// Exact mode (n <= 384): every entry of A - LL^T is checked. Each entry is
// bit-identical to the sequential reference's; only the order in which the
// squares are summed differs.
class CholVsReference : public ::testing::TestWithParam<CholCase> {};

TEST_P(CholVsReference, ResidualOnEveryRankMatchesSequential) {
  const auto [ranks, nt, b, variant] = GetParam();
  constexpr std::uint64_t kSeed = 42;
  World world(ranks);
  std::vector<CholeskyResult> res(static_cast<std::size_t>(ranks));
  world.run([&](Rank& self) {
    CholeskyConfig cfg;
    cfg.nt = nt;
    cfg.b = b;
    cfg.seed = kSeed;
    cfg.variant = variant;
    res[static_cast<std::size_t>(self.id())] = run_cholesky(self, cfg);
  });

  const auto a = linalg::generate_spd(nt, b, kSeed);
  auto l = a;
  ASSERT_TRUE(linalg::cholesky_tiled_reference(l));
  const double ref = linalg::cholesky_residual(a, l);
  ASSERT_GT(ref, 0.0);
  for (int r = 0; r < ranks; ++r) {
    const CholeskyResult& got = res[static_cast<std::size_t>(r)];
    EXPECT_TRUE(got.verified) << "rank " << r;
    EXPECT_LE(std::fabs(got.residual - ref), 1e-9 * ref)
        << "rank " << r << ": " << got.residual << " vs " << ref;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Exact, CholVsReference,
    // 6 ranks on 4 columns: ranks 4 and 5 own none. b = 10 runs the update
    // kernels' remainder columns.
    ::testing::Values(CholCase{6, 4, 16, CholeskyVariant::kMessagePassing},
                      CholCase{6, 4, 16, CholeskyVariant::kOneSided},
                      CholCase{6, 4, 16, CholeskyVariant::kNotified},
                      CholCase{3, 7, 10, CholeskyVariant::kMessagePassing},
                      CholCase{3, 7, 10, CholeskyVariant::kOneSided},
                      CholCase{3, 7, 10, CholeskyVariant::kNotified}),
    [](const auto& info) {
      return std::string(to_string(info.param.variant)) + "_r" +
             std::to_string(info.param.ranks) + "_nt" +
             std::to_string(info.param.nt) + "_b" +
             std::to_string(info.param.b);
    });

TEST(CholPerf, NotifiedNotSlowerThanOneSidedRing) {
  // The paper's Fig. 5 ordering: NA beats the ring-buffer+CAS one-sided
  // scheme (which pays fetch_and_op + flush + coordinate put per message).
  auto time_of = [](CholeskyVariant v) {
    World world(4);
    double t = 0;
    world.run([&](Rank& self) {
      CholeskyConfig cfg;
      cfg.nt = 12;
      cfg.b = 8;  // small tiles: communication dominated
      cfg.variant = v;
      cfg.verify = false;
      const auto r = run_cholesky(self, cfg);
      if (self.id() == 0) t = to_us(r.elapsed);
    });
    return t;
  };
  const double na = time_of(CholeskyVariant::kNotified);
  const double os = time_of(CholeskyVariant::kOneSided);
  EXPECT_LT(na, os);
}

TEST(CholEdge, SingleTile) {
  World world(1);
  CholeskyResult res;
  world.run([&](Rank& self) {
    CholeskyConfig cfg;
    cfg.nt = 1;
    cfg.b = 4;
    cfg.variant = CholeskyVariant::kNotified;
    const auto r = run_cholesky(self, cfg);
    res = r;
  });
  EXPECT_TRUE(res.verified);
}

TEST(CholEdge, MoreRanksThanColumns) {
  World world(6);
  CholeskyResult res;
  world.run([&](Rank& self) {
    CholeskyConfig cfg;
    cfg.nt = 3;  // ranks 3..5 own no columns, but still forward
    cfg.b = 4;
    cfg.variant = CholeskyVariant::kNotified;
    const auto r = run_cholesky(self, cfg);
    if (self.id() == 0) res = r;
  });
  EXPECT_TRUE(res.verified);
}
