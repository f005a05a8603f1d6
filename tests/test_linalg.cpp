// Unit tests of the tile kernels and the tiled Cholesky reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

using namespace narma::linalg;

TEST(Kernels, Potrf2x2Known) {
  // A = [[4, 2], [2, 5]] => L = [[2, 0], [1, 2]].
  std::vector<double> a{4, 2, 2, 5};
  ASSERT_TRUE(potrf_lower(a.data(), 2));
  EXPECT_DOUBLE_EQ(a[0], 2.0);
  EXPECT_DOUBLE_EQ(a[1], 0.0);  // upper zeroed
  EXPECT_DOUBLE_EQ(a[2], 1.0);
  EXPECT_DOUBLE_EQ(a[3], 2.0);
}

TEST(Kernels, PotrfRejectsIndefinite) {
  std::vector<double> a{1, 0, 0, -1};
  EXPECT_FALSE(potrf_lower(a.data(), 2));
}

TEST(Kernels, TrsmSolvesAgainstPotrf) {
  // Build L, set A = X * L^T for known X, then recover X.
  const int b = 4;
  std::vector<double> l(b * b, 0.0);
  for (int i = 0; i < b; ++i) {
    for (int j = 0; j < i; ++j) l[i * b + j] = 0.5 * (i + j + 1);
    l[i * b + i] = 2.0 + i;
  }
  std::vector<double> x(b * b);
  for (int i = 0; i < b * b; ++i) x[static_cast<std::size_t>(i)] = i % 7 + 1;
  // a = x * l^T
  std::vector<double> a(b * b, 0.0);
  for (int i = 0; i < b; ++i)
    for (int j = 0; j < b; ++j)
      for (int k = 0; k <= j; ++k)
        a[i * b + j] += x[i * b + k] * l[j * b + k];
  trsm_right_lower_trans(l.data(), a.data(), b);
  for (int i = 0; i < b * b; ++i)
    EXPECT_NEAR(a[static_cast<std::size_t>(i)],
                x[static_cast<std::size_t>(i)], 1e-12);
}

TEST(Kernels, SyrkSubtractsAAt) {
  const int b = 3;
  std::vector<double> a{1, 0, 0, 0, 2, 0, 0, 0, 3};  // diagonal
  std::vector<double> c(b * b, 10.0);
  syrk_lower(a.data(), c.data(), b);
  EXPECT_DOUBLE_EQ(c[0], 9.0);   // 10 - 1
  EXPECT_DOUBLE_EQ(c[4], 6.0);   // 10 - 4
  EXPECT_DOUBLE_EQ(c[8], 1.0);   // 10 - 9
  EXPECT_DOUBLE_EQ(c[1], 10.0);  // off-diagonal untouched by diagonal A
}

TEST(Kernels, GemmNtMatchesManual) {
  const int b = 2;
  std::vector<double> a{1, 2, 3, 4}, bt{5, 6, 7, 8}, c{0, 0, 0, 0};
  gemm_nt(a.data(), bt.data(), c.data(), b);
  // c -= a * bt^T; a*bt^T = [[1*5+2*6, 1*7+2*8], [3*5+4*6, 3*7+4*8]]
  EXPECT_DOUBLE_EQ(c[0], -17.0);
  EXPECT_DOUBLE_EQ(c[1], -23.0);
  EXPECT_DOUBLE_EQ(c[2], -39.0);
  EXPECT_DOUBLE_EQ(c[3], -53.0);
}

namespace {

// Reference: one output column per pass, one accumulator. The blocked
// update kernels must match it bit for bit.
void naive_update_nt(const double* a, const double* bt, double* c, int b) {
  for (int i = 0; i < b; ++i)
    for (int j = 0; j < b; ++j) {
      double s = 0;
      for (int k = 0; k < b; ++k) s += a[i * b + k] * bt[j * b + k];
      c[i * b + j] -= s;
    }
}

std::vector<double> random_tile(int b, narma::Xoshiro256& rng) {
  std::vector<double> t(static_cast<std::size_t>(b) * b);
  for (double& v : t) v = 2.0 * rng.next_double() - 1.0;
  return t;
}

}  // namespace

// Tile dimensions for the bit-identity checks: b % 4, b % 8 and b % 16 != 0
// cover the blocked kernels' edge rows and columns, b > 64 tiles wider than
// the benchmarks use, and b = 257 a k loop longer than the 256-deep panel
// the kernels once packed in chunks.
constexpr int kTileDims[] = {1,  2,  3,  4,  5,  7,  8,   9,
                             16, 31, 32, 33, 64, 65, 100, 257};

class UpdateKernels : public ::testing::TestWithParam<int> {};

TEST_P(UpdateKernels, BitIdenticalToNaiveLoop) {
  const int b = GetParam();
  narma::Xoshiro256 rng(static_cast<std::uint64_t>(b));
  const auto a = random_tile(b, rng), bt = random_tile(b, rng);
  const auto c0 = random_tile(b, rng);
  const std::size_t bytes = c0.size() * sizeof(double);

  auto c = c0, ref = c0;
  gemm_nt(a.data(), bt.data(), c.data(), b);
  naive_update_nt(a.data(), bt.data(), ref.data(), b);
  EXPECT_EQ(std::memcmp(c.data(), ref.data(), bytes), 0) << "gemm_nt b=" << b;

  c = c0;
  ref = c0;
  syrk_lower(a.data(), c.data(), b);
  naive_update_nt(a.data(), a.data(), ref.data(), b);
  EXPECT_EQ(std::memcmp(c.data(), ref.data(), bytes), 0)
      << "syrk_lower b=" << b;
}

namespace {

// Each instruction-set path on its own, whichever one the dispatch picks on
// this CPU.
void expect_isa_bit_identical(KernelIsa isa, int b) {
  narma::Xoshiro256 rng(static_cast<std::uint64_t>(b) + 1000);
  const auto a = random_tile(b, rng), bt = random_tile(b, rng);
  auto c = random_tile(b, rng);
  auto ref = c;
  gemm_nt_isa(isa, a.data(), bt.data(), c.data(), b);
  naive_update_nt(a.data(), bt.data(), ref.data(), b);
  EXPECT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(double)), 0)
      << "b=" << b;
}

}  // namespace

TEST_P(UpdateKernels, BaselinePathBitIdentical) {
  expect_isa_bit_identical(KernelIsa::kBaseline, GetParam());
}

TEST_P(UpdateKernels, Avx2PathBitIdentical) {
  if (!kernel_isa_supported(KernelIsa::kAvx2))
    GTEST_SKIP() << "CPU lacks AVX2";
  expect_isa_bit_identical(KernelIsa::kAvx2, GetParam());
}

TEST_P(UpdateKernels, Avx512PathBitIdentical) {
  if (!kernel_isa_supported(KernelIsa::kAvx512))
    GTEST_SKIP() << "CPU lacks AVX-512F";
  expect_isa_bit_identical(KernelIsa::kAvx512, GetParam());
}

// One column step on every supported path: a SYRK and three GEMMs against
// one packed B^T give the bits of per-call syrk/gemm on that path. Between
// the updates another panel is packed and a per-call update runs on the
// same thread, as other ranks' fibers do while a rank waits for a tile.
TEST_P(UpdateKernels, PackedPanelColumnStepBitIdentical) {
  const int b = GetParam();
  constexpr int kGemms = 3;
  const std::size_t bytes = static_cast<std::size_t>(b) * b * sizeof(double);
  for (const KernelIsa isa :
       {KernelIsa::kBaseline, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!kernel_isa_supported(isa)) continue;
    narma::Xoshiro256 rng(static_cast<std::uint64_t>(b) + 3000);
    const auto bt = random_tile(b, rng), other = random_tile(b, rng);
    auto diag = random_tile(b, rng), diag_ref = diag;
    std::vector<std::vector<double>> a, c, ref;
    for (int i = 0; i < kGemms; ++i) {
      a.push_back(random_tile(b, rng));
      c.push_back(random_tile(b, rng));
    }
    ref = c;

    PackedPanel panel(isa), intruder(isa);
    panel.pack(bt.data(), b);
    panel.update(bt.data(), diag.data());
    for (std::size_t i = 0; i < kGemms; ++i) {
      intruder.pack(other.data(), b);
      auto scratch = other;
      gemm_nt_isa(isa, other.data(), other.data(), scratch.data(), b);
      panel.update(a[i].data(), c[i].data());
    }

    gemm_nt_isa(isa, bt.data(), bt.data(), diag_ref.data(), b);
    for (std::size_t i = 0; i < kGemms; ++i)
      gemm_nt_isa(isa, a[i].data(), bt.data(), ref[i].data(), b);
    EXPECT_EQ(std::memcmp(diag.data(), diag_ref.data(), bytes), 0)
        << "syrk, isa " << static_cast<int>(isa) << " b=" << b;
    for (std::size_t i = 0; i < kGemms; ++i)
      EXPECT_EQ(std::memcmp(c[i].data(), ref[i].data(), bytes), 0)
          << "gemm " << i << ", isa " << static_cast<int>(isa) << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(TileDims, UpdateKernels,
                         ::testing::ValuesIn(kTileDims));

// The default path per tile size (BM_GemmNt in bench/micro_linalg measured
// the crossover). Fig. 5's b = 32 must stay on the widest path.
TEST(UpdateKernels, PathPickedByTileSize) {
  const bool avx2 = kernel_isa_supported(KernelIsa::kAvx2);
  const bool avx512 = kernel_isa_supported(KernelIsa::kAvx512);
  const KernelIsa widest = avx512 ? KernelIsa::kAvx512
                           : avx2 ? KernelIsa::kAvx2
                                  : KernelIsa::kBaseline;
  const KernelIsa upto_avx2 = avx2 ? KernelIsa::kAvx2 : KernelIsa::kBaseline;
  const std::pair<int, KernelIsa> table[] = {
      {1, widest},     {4, KernelIsa::kBaseline},
      {8, upto_avx2},  {12, KernelIsa::kBaseline},
      {16, widest},    {24, upto_avx2},
      {32, widest},    {33, widest},
      {40, upto_avx2}, {64, widest},
  };
  for (const auto& [b, isa] : table)
    EXPECT_EQ(static_cast<int>(update_isa(b)), static_cast<int>(isa))
        << "b=" << b;
}

namespace {

// Reference: one row at a time, as the kernel solved before it blocked rows.
void naive_trsm(const double* l, double* a, int b) {
  for (int r = 0; r < b; ++r)
    for (int j = 0; j < b; ++j) {
      double s = a[r * b + j];
      for (int k = 0; k < j; ++k) s -= a[r * b + k] * l[j * b + k];
      a[r * b + j] = s / l[j * b + j];
    }
}

}  // namespace

TEST(Kernels, TrsmBitIdenticalToNaiveLoop) {
  for (const int b : kTileDims) {
    narma::Xoshiro256 rng(static_cast<std::uint64_t>(b) + 2000);
    auto l = random_tile(b, rng);
    // A well-conditioned lower factor: diagonal in [b - 1, b + 1).
    for (int i = 0; i < b; ++i) l[static_cast<std::size_t>(i) * b + i] += b;
    auto a = random_tile(b, rng);
    auto ref = a;
    trsm_right_lower_trans(l.data(), a.data(), b);
    naive_trsm(l.data(), ref.data(), b);
    EXPECT_EQ(std::memcmp(a.data(), ref.data(), a.size() * sizeof(double)), 0)
        << "b=" << b;
  }
}

TEST(Matrix, GenerateSpdPinnedBits) {
  // Pinned bits at seed 1 (FNV-1a over every entry, row-major): the test
  // matrix must not drift, so the factor and every residual stay
  // bit-identical across changes to the generator.
  const auto a = generate_spd(4, 8, 1);
  EXPECT_EQ(a.at(0, 0), 0x1.01f0e6041f05fp+5);
  EXPECT_EQ(a.at(17, 3), 0x1.25e4c4acbdcffp-1);
  EXPECT_EQ(a.at(3, 17), 0x1.25e4c4acbdcffp-1);
  EXPECT_EQ(a.at(31, 31), 0x1.1491d61837771p+5);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < a.dim(); ++i)
    for (int j = 0; j < a.dim(); ++j) {
      const double v = a.at(i, j);
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      for (int k = 0; k < 8; ++k) {
        h ^= (bits >> (8 * k)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
  EXPECT_EQ(h, 0x88a703d0056ed358ull);
}

TEST(Matrix, GenerateSpdIsSymmetric) {
  const auto a = generate_spd(3, 4, 7);
  for (int i = 0; i < a.dim(); ++i)
    for (int j = 0; j < a.dim(); ++j)
      EXPECT_DOUBLE_EQ(a.at(i, j), a.at(j, i));
}

TEST(Matrix, GenerateSpdDeterministic) {
  const auto a = generate_spd(2, 3, 11);
  const auto b = generate_spd(2, 3, 11);
  const auto c = generate_spd(2, 3, 12);
  EXPECT_EQ(a.at(1, 2), b.at(1, 2));
  EXPECT_NE(a.at(1, 2), c.at(1, 2));
}

TEST(Matrix, TileAddressingConsistent) {
  TiledMatrix m(2, 3);
  m.tile(1, 0)[0 * 3 + 2] = 42.0;  // tile (1,0), local row 0, col 2
  EXPECT_EQ(m.at(3, 2), 42.0);     // global row 3, col 2
}

class CholeskyRef : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CholeskyRef, ResidualTiny) {
  const auto [nt, b] = GetParam();
  auto a = generate_spd(nt, b, 5);
  auto l = a;
  ASSERT_TRUE(cholesky_tiled_reference(l));
  const double res = cholesky_residual(a, l);
  EXPECT_GE(res, 0.0);
  EXPECT_LT(res, 1e-12) << "nt=" << nt << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(Shapes, CholeskyRef,
                         ::testing::Values(std::pair{1, 4}, std::pair{2, 8},
                                           std::pair{4, 8}, std::pair{6, 16},
                                           std::pair{8, 32}));

// Above n = 384 the panel check covers every lower-triangle entry of
// A - L L^T. A 1e-6 error in one factor entry, or 1e-5 in one entry of A,
// must lift the residual far above the clean factor's; among these the
// 2^16-entry sample it replaced caught only the entries its draws happened
// to land near ((415, 415) read 2.1e-16 there).
TEST(PanelCheck, CatchesSingleEntryErrors) {
  const TiledMatrix a = generate_spd(13, 32, 5);
  TiledMatrix l = a;
  ASSERT_TRUE(cholesky_tiled_reference(l));
  ASSERT_EQ(l.dim(), 416);
  EXPECT_LT(cholesky_residual(a, l), 1e-13);
  const std::pair<int, int> factor_errors[] = {
      {0, 0},    {5, 3},    {31, 31},  {32, 31},
      {100, 99}, {200, 17}, {415, 0},  {415, 415}};
  for (const auto& [i, j] : factor_errors) {
    TiledMatrix bad = l;
    bad.at(i, j) += 1e-6;
    EXPECT_GT(cholesky_residual(a, bad), 1e-10) << "L(" << i << "," << j << ")";
  }
  TiledMatrix bad_a = a;
  bad_a.at(300, 7) += 1e-5;
  bad_a.at(7, 300) += 1e-5;
  EXPECT_GT(cholesky_residual(bad_a, l), 1e-10) << "A(300,7)";
}

// The panel check reads only lower triangles, and each column's products
// are the same bits whichever other columns are stacked beside it.
TEST(PanelCheck, ReadsLowerTrianglesAndColumnsAreIndependent) {
  const TiledMatrix a = generate_spd(13, 32, 5);
  TiledMatrix l = a;
  ASSERT_TRUE(cholesky_tiled_reference(l));
  const double clean = cholesky_residual(a, l);
  TiledMatrix a_poisoned = a, l_poisoned = l;
  for (int i = 0; i < a.dim(); ++i)
    for (int j = i + 1; j < a.dim(); ++j) {
      a_poisoned.at(i, j) = std::nan("");
      l_poisoned.at(i, j) = std::nan("");
    }
  EXPECT_EQ(cholesky_residual(a_poisoned, l_poisoned), clean);

  std::vector<const double*> lower(detail::packed_lower(l.nt(), 0));
  for (int ti = 0; ti < l.nt(); ++ti)
    for (int tk = 0; tk <= ti; ++tk)
      lower[detail::packed_lower(ti, tk)] = l.tile(ti, tk);
  std::vector<int> all(static_cast<std::size_t>(l.nt()));
  for (int tj = 0; tj < l.nt(); ++tj) all[static_cast<std::size_t>(tj)] = tj;
  const detail::PanelProducts stacked(l.dim(), 32, all, lower.data());
  for (int tj : {0, 5, 12}) {
    const detail::PanelProducts alone(l.dim(), 32, {tj}, lower.data());
    for (int i = tj * 32; i < l.dim(); ++i)
      ASSERT_EQ(alone.llt(i, 0), stacked.llt(i, static_cast<std::size_t>(tj)))
          << "column " << tj << " row " << i;
  }
}

TEST(CholeskyRefMore, MatchesUntiledOnSmall) {
  // Tiled (2x2 tiles of 2) vs untiled (1 tile of 4) factorization of the
  // same matrix give the same factor.
  auto a4 = generate_spd(2, 2, 3);
  auto a1 = TiledMatrix(1, 4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) a1.at(i, j) = a4.at(i, j);
  ASSERT_TRUE(cholesky_tiled_reference(a4));
  ASSERT_TRUE(cholesky_tiled_reference(a1));
  EXPECT_LT(max_lower_diff(a4, a1), 1e-12);
}

TEST(Flops, CountsArePositiveAndOrdered) {
  EXPECT_GT(flops_potrf(32), 0.0);
  EXPECT_GT(flops_gemm(32), flops_syrk(32));
  EXPECT_GT(flops_gemm(32), flops_trsm(32));
}
