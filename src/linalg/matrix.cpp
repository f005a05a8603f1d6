#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"
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

namespace {

/// w += L^T v over the lower triangle of the b x b tile `l` (all of it
/// unless `diag`): w[k] += l[r][k] * v[r], r ascending.
void add_lt_v(const double* l, int b, bool diag, const double* v, double* w) {
  for (int r = 0; r < b; ++r) {
    const double* row = l + static_cast<std::size_t>(r) * b;
    const int kend = diag ? r + 1 : b;
    for (int k = 0; k < kend; ++k) w[k] += row[k] * v[r];
  }
}

/// y[r * ldy] += l[r][k] * w[k] over the lower triangle of the tile (all
/// of it unless `diag`), k ascending; four independent rows at a time.
void add_l_w(const double* l, int b, bool diag, const double* w, double* y,
             std::size_t ldy) {
  int r = 0;
  if (!diag)
    for (; r + 4 <= b; r += 4) {
      const double* l0 = l + static_cast<std::size_t>(r) * b;
      const double *l1 = l0 + b, *l2 = l1 + b, *l3 = l2 + b;
      double* y0 = y + static_cast<std::size_t>(r) * ldy;
      double s0 = y0[0], s1 = y0[ldy], s2 = y0[2 * ldy], s3 = y0[3 * ldy];
      for (int k = 0; k < b; ++k) {
        s0 += l0[k] * w[k];
        s1 += l1[k] * w[k];
        s2 += l2[k] * w[k];
        s3 += l3[k] * w[k];
      }
      y0[0] = s0;
      y0[ldy] = s1;
      y0[2 * ldy] = s2;
      y0[3 * ldy] = s3;
    }
  for (; r < b; ++r) {
    const double* row = l + static_cast<std::size_t>(r) * b;
    const int kend = diag ? r + 1 : b;
    double s = y[static_cast<std::size_t>(r) * ldy];
    for (int k = 0; k < kend; ++k) s += row[k] * w[k];
    y[static_cast<std::size_t>(r) * ldy] = s;
  }
}

}  // namespace

namespace detail {

double llt_entry(int i, int j, int b, const double* const* lower) {
  const int ti = i / b, tj = j / b;
  const std::size_t ri = static_cast<std::size_t>(i % b) * b;
  const std::size_t rj = static_cast<std::size_t>(j % b) * b;
  double s = 0;
  for (int tk = 0; tk <= tj; ++tk) {
    const double* li = lower[packed_lower(ti, tk)] + ri;
    const double* lj = lower[packed_lower(tj, tk)] + rj;
    const int kend = tk == tj ? j % b + 1 : b;
    for (int k = 0; k < kend; ++k) s += li[k] * lj[k];
  }
  return s;
}

PanelProducts::PanelProducts(int n, int b, const std::vector<int>& cols,
                             const double* const* lower)
    : b_(b),
      row0_(cols.front() * b),
      cols_(cols.size()),
      probes_(cols_ * static_cast<std::size_t>(b)),
      llt_(static_cast<std::size_t>(n - row0_) * cols_, 0.0) {
  const int nt = n / b;
  const auto tile = [&](int ti, int tk) {
    return lower[packed_lower(ti, tk)];
  };
  // w_m = L(cols[m], <= cols[m])^T v_m, tile column tk at w[woff[m] + tk*b].
  std::vector<std::size_t> woff(cols_);
  std::size_t wlen = 0;
  for (std::size_t m = 0; m < cols_; ++m) {
    woff[m] = wlen;
    wlen += static_cast<std::size_t>(cols[m] + 1) * b;
  }
  std::vector<double> w(wlen, 0.0);
  for (std::size_t m = 0; m < cols_; ++m) {
    const int tj = cols[m];
    double* v = probes_.data() + m * b;
    Xoshiro256 rng(static_cast<std::uint64_t>(n) << 32 |
                   static_cast<std::uint32_t>(tj));
    for (int c = 0; c < b; ++c) {
      const std::uint64_t x = rng.next();
      const double mag = 1.0 + static_cast<double>(x >> 12) * 0x1.0p-52;
      v[c] = (x & 1) != 0 ? -mag : mag;
    }
    for (int tk = 0; tk <= tj; ++tk)
      add_lt_v(tile(tj, tk), b, tk == tj, v, &w[woff[m] + tk * b]);
  }
  // Row tile ti serves the columns cols[m] <= ti, and its tile tk those with
  // cols[m] >= tk as well: read it once and apply it to each of their w_m.
  for (int ti = cols.front(); ti < nt; ++ti) {
    const auto end = std::upper_bound(cols.begin(), cols.end(), ti);
    const std::size_t m_end = static_cast<std::size_t>(end - cols.begin());
    double* y = llt_.data() + static_cast<std::size_t>(ti * b - row0_) * cols_;
    for (int tk = 0; tk <= *(end - 1); ++tk) {
      const double* l = tile(ti, tk);
      for (auto m = static_cast<std::size_t>(
               std::lower_bound(cols.begin(), end, tk) - cols.begin());
           m < m_end; ++m)
        add_l_w(l, b, ti == tk, &w[woff[m] + tk * b], y + m, cols_);
    }
  }
}

}  // namespace detail

double cholesky_residual(const TiledMatrix& a, const TiledMatrix& l) {
  NARMA_CHECK(a.dim() == l.dim() && a.tile_dim() == l.tile_dim());
  return residual_sums(
             a.dim(), a.tile_dim(), [](int) { return true; },
             [&](int i, int j) { return a.at(i, j); },
             [&](int ti, int tk) { return l.tile(ti, tk); })
      .relative();
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
