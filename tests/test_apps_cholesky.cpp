// Integration tests of the task-based Cholesky: every synchronization
// variant must produce a factor with a tiny residual across rank counts and
// tile shapes, and the distributed factor must equal the sequential
// reference.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/cholesky.hpp"
#include "common/pages.hpp"
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

// Panel mode (n = 416 > 384): each tile column is checked by its owner
// with a seeded probe. The residual is pinned to its bits, on every rank of
// every variant. The sequential reference checks every column in one pass
// and adds the same terms in another order, so it agrees to 1e-12.
TEST(CholSampled, ResidualBitsPinned) {
  constexpr int kRanks = 4, kNt = 13, kB = 32;
  constexpr double kResidual = 0x1.bcd614884f8c9p-52;
  const auto a = linalg::generate_spd(kNt, kB, CholeskyConfig{}.seed);
  auto l = a;
  ASSERT_TRUE(linalg::cholesky_tiled_reference(l));
  const double ref = linalg::cholesky_residual(a, l);
  ASSERT_GT(ref, 0.0);
  for (CholeskyVariant variant :
       {CholeskyVariant::kMessagePassing, CholeskyVariant::kOneSided,
        CholeskyVariant::kNotified}) {
    World world(kRanks);
    std::vector<CholeskyResult> res(kRanks);
    world.run([&](Rank& self) {
      CholeskyConfig cfg;
      cfg.nt = kNt;
      cfg.b = kB;
      cfg.variant = variant;
      res[static_cast<std::size_t>(self.id())] = run_cholesky(self, cfg);
    });
    for (int r = 0; r < kRanks; ++r) {
      const CholeskyResult& got = res[static_cast<std::size_t>(r)];
      EXPECT_TRUE(got.verified) << to_string(variant) << " rank " << r;
      EXPECT_EQ(got.residual, kResidual) << to_string(variant) << " rank " << r;
      EXPECT_LE(std::fabs(got.residual - ref), 1e-12 * ref)
          << to_string(variant) << " rank " << r << ": " << got.residual
          << " vs " << ref;
    }
  }
}

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

// Strictly-lower tiles fill slots [0, nt(nt-1)/2), the diagonal follows.
TEST(CholLayout, StrictlyLowerSlotsFirstThenDiagonal) {
  for (int nt = 1; nt <= 9; ++nt) {
    const std::size_t lower = static_cast<std::size_t>(nt) * (nt - 1) / 2;
    std::vector<int> seen(lower + static_cast<std::size_t>(nt), 0);
    for (int i = 0; i < nt; ++i)
      for (int k = 0; k < i; ++k) {
        const std::size_t s = tile_slot(nt, i, k);
        ASSERT_LT(s, lower) << "nt=" << nt << " (" << i << "," << k << ")";
        ++seen[s];
      }
    for (int j = 0; j < nt; ++j) {
      EXPECT_EQ(tile_slot(nt, j, j), lower + static_cast<std::size_t>(j))
          << "nt=" << nt;
      ++seen[tile_slot(nt, j, j)];
    }
    EXPECT_EQ(seen, std::vector<int>(seen.size(), 1)) << "nt=" << nt;
  }
}

// After a run, a rank's storage is resident exactly where it wrote: every
// strictly-lower slot and the diagonal slots of its own columns. A page
// of another rank's diagonal slot is never mapped.
TEST(CholLayout, OtherRanksDiagonalSlotsStayUnmapped) {
  constexpr int kRanks = 4, kNt = 12, kB = 32;
  const std::size_t tile_bytes = kB * kB * sizeof(double);
  const std::size_t page = page_size();
  std::vector<std::vector<unsigned char>> resident(kRanks);
  std::vector<CholeskyResult> results(kRanks);
  World world(kRanks);
  world.run([&](Rank& self) {
    CholeskyConfig cfg;
    cfg.nt = kNt;
    cfg.b = kB;
    const auto p = static_cast<std::size_t>(self.id());
    results[p] = run_cholesky(self, cfg, [&](std::span<const double> tiles) {
      resident[p].resize((tiles.size_bytes() + page - 1) / page);
      ASSERT_EQ(mincore(const_cast<double*>(tiles.data()), tiles.size_bytes(),
                        resident[p].data()),
                0);
    });
  });
  for (int p = 0; p < kRanks; ++p) {
    EXPECT_TRUE(results[static_cast<std::size_t>(p)].verified) << p;
    const auto& bits = resident[static_cast<std::size_t>(p)];
    ASSERT_FALSE(bits.empty());
    // Pages some write of this rank touches: the strictly-lower slots and
    // the diagonal slots of its own columns (column j is owned by j % n).
    std::vector<int> written(bits.size(), 0);
    auto mark = [&](std::size_t slot) {
      const std::size_t first = slot * tile_bytes / page;
      const std::size_t last = ((slot + 1) * tile_bytes - 1) / page;
      for (std::size_t q = first; q <= last; ++q) written[q] = 1;
    };
    for (int i = 0; i < kNt; ++i)
      for (int k = 0; k <= i; ++k)
        if (k < i || k % kRanks == p) mark(tile_slot(kNt, i, k));
    for (std::size_t q = 0; q < bits.size(); ++q)
      EXPECT_EQ(bits[q] & 1, written[q]) << "rank " << p << " page " << q;
  }
}

// Kernels are always charged at the modeled rate, so it must be positive.
TEST(CholEdge, NonPositiveModelRateAborts) {
  for (double gflops : {0.0, -1.0}) {
    CholeskyConfig cfg;
    cfg.model_gflops = gflops;
    World world(1);
    EXPECT_DEATH(world.run([&](Rank& self) { run_cholesky(self, cfg); }),
                 "model_gflops must be positive");
  }
}

// Equivalence oracle: every rank's final virtual clock (ps) and the
// residual, pinned for every variant under a fixed modeled kernel rate.
struct CholPin {
  const char* name;
  int ranks;
  CholeskyVariant variant;
  double residual;
  std::vector<Time> clocks;
};

TEST(CholOracle, PinnedClocksAndResidual) {
  // Every variant factors the same tiles with the same kernels, so the
  // residual is one bit pattern.
  constexpr double kResidual = 0x1.40d06169f4722p-53;
  const std::vector<CholPin> table = {
      {"mp_r3", 3, CholeskyVariant::kMessagePassing,
       kResidual, {50274546, 51221371, 50818491}},
      {"os_r3", 3, CholeskyVariant::kOneSided,
       kResidual, {104799147, 105745972, 105343092}},
      {"na_r3", 3, CholeskyVariant::kNotified,
       kResidual, {45669080, 46615905, 46213025}},
  };
  for (const CholPin& pin : table) {
    SCOPED_TRACE(pin.name);
    World world(pin.ranks);
    double residual = -1;
    world.run([&](Rank& self) {
      CholeskyConfig cfg;
      cfg.nt = 6;
      cfg.b = 8;
      cfg.variant = pin.variant;
      cfg.model_gflops = 10;
      const CholeskyResult r = run_cholesky(self, cfg);
      if (self.id() == 0) residual = r.residual;
    });
    std::vector<Time> clocks;
    for (int r = 0; r < pin.ranks; ++r)
      clocks.push_back(world.engine().rank(r).now());
    EXPECT_EQ(residual, pin.residual);
    EXPECT_EQ(clocks, pin.clocks);
  }
}
