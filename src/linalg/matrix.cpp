#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "linalg/kernels.hpp"

namespace narma::linalg {

TiledMatrix::TiledMatrix(int nt, int b) : nt_(nt), b_(b) {
  NARMA_CHECK(nt >= 1 && b >= 1);
  data_.assign(static_cast<std::size_t>(nt) * nt * b * b, 0.0);
}

double* TiledMatrix::tile(int i, int j) {
  NARMA_CHECK(i >= 0 && i < nt_ && j >= 0 && j < nt_);
  return data_.data() +
         (static_cast<std::size_t>(i) * nt_ + j) * tile_elems();
}

const double* TiledMatrix::tile(int i, int j) const {
  return const_cast<TiledMatrix*>(this)->tile(i, j);
}

double& TiledMatrix::at(int row, int col) {
  const int i = row / b_, j = col / b_;
  return tile(i, j)[static_cast<std::size_t>(row % b_) * b_ + (col % b_)];
}

double TiledMatrix::at(int row, int col) const {
  return const_cast<TiledMatrix*>(this)->at(row, col);
}

SpdGenerator::SpdGenerator(int n, std::uint64_t seed)
    : n_(n), u_(static_cast<std::size_t>(n) * kRankUpdates) {
  // A rank-4 update of a scaled identity is O(n^2 * 4) to build (a dense
  // M M^T product would be O(n^3), which dominates benchmark wall time for
  // large weak-scaling matrices). Draw order: all of u_0, then u_1, ...
  NARMA_CHECK(n >= 1);
  Xoshiro256 rng(seed);
  for (int k = 0; k < kRankUpdates; ++k)
    for (int i = 0; i < n; ++i)
      u_[static_cast<std::size_t>(i) * kRankUpdates + k] =
          2.0 * rng.next_double() - 1.0;
}

double SpdGenerator::entry(int row, int col) const {
  const double* ur = u_.data() + static_cast<std::size_t>(row) * kRankUpdates;
  const double* uc = u_.data() + static_cast<std::size_t>(col) * kRankUpdates;
  double s = row == col ? static_cast<double>(n_) : 0.0;
  for (int k = 0; k < kRankUpdates; ++k) s += ur[k] * uc[k];
  return s;
}

void SpdGenerator::fill_tile(int ti, int tj, int b, double* out) const {
  NARMA_CHECK(ti >= 0 && tj >= 0 && (ti + 1) * b <= n_ && (tj + 1) * b <= n_);
  for (int r = 0; r < b; ++r)
    for (int c = 0; c < b; ++c)
      *out++ = entry(ti * b + r, tj * b + c);
}

TiledMatrix generate_spd(int nt, int b, std::uint64_t seed) {
  const SpdGenerator gen(nt * b, seed);
  TiledMatrix a(nt, b);
  for (int i = 0; i < nt; ++i)
    for (int j = 0; j < nt; ++j) gen.fill_tile(i, j, b, a.tile(i, j));
  return a;
}

bool cholesky_tiled_reference(TiledMatrix& a) {
  const int nt = a.nt();
  const int b = a.tile_dim();
  for (int k = 0; k < nt; ++k) {
    if (!potrf_lower(a.tile(k, k), b)) return false;
    for (int i = k + 1; i < nt; ++i)
      trsm_right_lower_trans(a.tile(k, k), a.tile(i, k), b);
    for (int i = k + 1; i < nt; ++i) {
      syrk_lower(a.tile(i, k), a.tile(i, i), b);
      for (int j = k + 1; j < i; ++j)
        gemm_nt(a.tile(i, k), a.tile(j, k), a.tile(i, j), b);
    }
  }
  return true;
}

double frobenius(const TiledMatrix& a) {
  const int n = a.dim();
  double s = 0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) s += a.at(i, j) * a.at(i, j);
  return std::sqrt(s);
}

double ResidualSums::relative() const {
  return ref2 == 0 ? 0 : std::sqrt(diff2 / ref2);
}

double cholesky_residual(const TiledMatrix& a, const TiledMatrix& l) {
  NARMA_CHECK(a.dim() == l.dim() && a.tile_dim() == l.tile_dim());
  const auto l_tile = [&](int ti, int tk) { return l.tile(ti, tk); };
  ResidualSums sums;
  for_each_residual_entry(a.dim(), [&](int row, int col) {
    const int i = std::max(row, col), j = std::min(row, col);
    sums.add(a.at(i, j), llt_entry(i, j, a.tile_dim(), l_tile));
  });
  return sums.relative();
}

double max_lower_diff(const TiledMatrix& a, const TiledMatrix& b) {
  NARMA_CHECK(a.dim() == b.dim());
  double m = 0;
  for (int i = 0; i < a.dim(); ++i)
    for (int j = 0; j <= i; ++j)
      m = std::max(m, std::fabs(a.at(i, j) - b.at(i, j)));
  return m;
}

}  // namespace narma::linalg
