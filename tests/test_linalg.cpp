// Unit tests of the tile kernels and the tiled Cholesky reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
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

// b % 4 != 0 covers the remainder columns.
INSTANTIATE_TEST_SUITE_P(TileDims, UpdateKernels,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 32));

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
