// Dense-matrix helpers: SPD problem generation (whole matrix or one tile at
// a time), a sequential tiled Cholesky reference, and the residual check
// used by tests and the Cholesky application to validate every distributed
// variant.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace narma::linalg {

/// A square matrix stored as nt x nt tiles of b x b row-major doubles.
/// Tile (i, j) covers rows [i*b, (i+1)*b) and columns [j*b, (j+1)*b).
class TiledMatrix {
 public:
  TiledMatrix(int nt, int b);

  int nt() const { return nt_; }
  int tile_dim() const { return b_; }
  int dim() const { return nt_ * b_; }
  std::size_t tile_elems() const {
    return static_cast<std::size_t>(b_) * static_cast<std::size_t>(b_);
  }

  double* tile(int i, int j);
  const double* tile(int i, int j) const;

  double& at(int row, int col);
  double at(int row, int col) const;

 private:
  int nt_;
  int b_;
  std::vector<double> data_;
};

/// The SPD test problem A = n*I + sum_{k<4} u_k u_k^T, with every u_k
/// uniform in [-1, 1) and drawn from Xoshiro256(seed), u_0 first. Positive
/// definite by construction. Only the 4 x n vectors are stored, so a rank
/// can produce any entry or tile of A without holding the whole matrix.
class SpdGenerator {
 public:
  SpdGenerator(int n, std::uint64_t seed);

  /// A(row, col); bit-identical to A(col, row).
  double entry(int row, int col) const;

  /// Writes tile (ti, tj) of the b x b tiling of A to `out` (row-major).
  void fill_tile(int ti, int tj, int b, double* out) const;

 private:
  static constexpr int kRankUpdates = 4;
  int n_;
  std::vector<double> u_;  // u_[i * kRankUpdates + k] = u_k[i]
};

/// The whole SpdGenerator(nt * b, seed) matrix, as nt x nt tiles of b x b.
TiledMatrix generate_spd(int nt, int b, std::uint64_t seed);

/// Sequential left-looking tiled Cholesky using the tile kernels; the
/// reference every distributed variant is checked against. Returns false if
/// the matrix is not positive definite.
bool cholesky_tiled_reference(TiledMatrix& a);

/// Running sums of a relative residual ||R||_F / ||A||_F, one term at a
/// time: an entry of R = A - L L^T in the exact check, a row of the probed
/// panel R = (A - L L^T) P in the panel check.
struct ResidualSums {
  double diff2 = 0;  // sum of the squared terms of R
  double ref2 = 0;   // sum of the squared terms of A (or A P)

  /// Adds one term: `a` from A (or A P), `llt` the same term of L L^T.
  void add(double a, double llt) {
    const double d = a - llt;
    diff2 += d * d;
    ref2 += a * a;
  }
  ResidualSums& operator+=(const ResidualSums& o) {
    diff2 += o.diff2;
    ref2 += o.ref2;
    return *this;
  }
  double relative() const;
};

/// Up to this order the residual check reads every entry of A - L L^T
/// (n^3 / 3 multiply-adds in all); above it, the panel check.
constexpr int kResidualExactLimit = 384;

namespace detail {

/// Index of lower-triangle tile (ti, tk), ti >= tk, in row-major packing.
inline std::size_t packed_lower(int ti, int tk) {
  return static_cast<std::size_t>(ti) * (ti + 1) / 2 +
         static_cast<std::size_t>(tk);
}

/// (L L^T)(i, j) for i >= j: the inner product of factor rows i and j over
/// k = 0..j, in ascending k order, walking contiguous tile rows.
/// `lower[packed_lower(ti, tk)]` is the b x b row-major factor tile
/// (ti, tk); only tiles with tk <= j / b are read.
double llt_entry(int i, int j, int b, const double* const* lower);

/// The factor side of the panel check for one caller's tile columns. Each
/// column tj gets a probe v (b entries drawn from Xoshiro256 seeded by
/// (n, tj), so every caller that checks tj draws the same v). For every row
/// i >= tj * b it holds (L L^T)(i, block tj) v = L(i, <= tj) (L(tj, <= tj)^T
/// v), with each sum in ascending k whichever other columns are checked
/// alongside. The L(tj, tk)^T v of all columns are stacked, so each factor
/// tile is read once however many columns it serves.
class PanelProducts {
 public:
  /// `cols`: the checked tile columns, ascending, non-empty. `lower` as
  /// for llt_entry. Only lower triangles are read.
  PanelProducts(int n, int b, const std::vector<int>& cols,
                const double* const* lower);

  /// Probe of cols[m].
  const double* probe(std::size_t m) const {
    return probes_.data() + m * static_cast<std::size_t>(b_);
  }
  /// Row i of (L L^T)(:, block cols[m]) v; i >= cols[m] * b.
  double llt(int i, std::size_t m) const {
    return llt_[static_cast<std::size_t>(i - row0_) * cols_ + m];
  }

 private:
  int b_;
  int row0_;          // first row held: cols.front() * b
  std::size_t cols_;  // number of checked columns
  std::vector<double> probes_;
  std::vector<double> llt_;  // (n - row0_) x cols_, row-major
};

}  // namespace detail

/// Sums the residual terms of the tile columns tj for which owns(tj) holds;
/// n is a multiple of b. `a(i, j)` returns A(i, j) for i >= j, and
/// `tile(ti, tk)` the b x b row-major factor tile (ti, tk); it is asked
/// only for tiles with an owned column in [tk, ti], and only their lower
/// triangles are read.
///
/// Up to kResidualExactLimit every entry (row, col) of the whole n x n
/// matrix whose mirror (i, j) = (max, min) lies in an owned column is one
/// term, in row-major order; each (L L^T)(i, j) is computed once and held
/// (n(n+1)/2 doubles at most, 590 KB at n = 384).
///
/// Above it, the panel check: for each owned column tj with probe v and
/// each row i >= tj * b, one term (A(i, block tj) v, (L L^T)(i, block tj)
/// v), columns ascending, rows ascending. Every lower-triangle entry of
/// A - L L^T in the column enters the terms, so any error in it moves them
/// (Freivalds); the probe's entries have magnitude in [1, 2), so an error
/// alone in its row moves a term by at least itself. O(n^3 / (6 b))
/// multiply-adds over all columns, where the exact check takes O(n^3 / 3).
template <class Owns, class EntryOfA, class TileOf>
ResidualSums residual_sums(int n, int b, Owns&& owns, EntryOfA&& a,
                           TileOf&& tile) {
  NARMA_CHECK(b >= 1 && n % b == 0) << "the residual check needs whole tiles";
  ResidualSums sums;
  const int nt = n / b;
  std::vector<int> cols;
  for (int tj = 0; tj < nt; ++tj)
    if (owns(tj)) cols.push_back(tj);
  if (cols.empty()) return sums;
  std::vector<const double*> lower(detail::packed_lower(nt, 0));
  for (int ti = cols.front(); ti < nt; ++ti) {
    const int last = *(std::upper_bound(cols.begin(), cols.end(), ti) - 1);
    for (int tk = 0; tk <= last; ++tk)
      lower[detail::packed_lower(ti, tk)] = tile(ti, tk);
  }
  if (n <= kResidualExactLimit) {
    // (L L^T)(i, j) of each i >= j in an owned column once, column j from
    // llt[col0[j]]; the terms then go in row-major order, each
    // off-diagonal one twice, as (i, j) and as (j, i).
    std::vector<std::size_t> col0(static_cast<std::size_t>(n));
    std::vector<double> llt;
    for (int j = 0; j < n; ++j) {
      if (!owns(j / b)) continue;
      col0[static_cast<std::size_t>(j)] = llt.size();
      for (int i = j; i < n; ++i)
        llt.push_back(detail::llt_entry(i, j, b, lower.data()));
    }
    for (int row = 0; row < n; ++row)
      for (int col = 0; col < n; ++col) {
        const int i = std::max(row, col), j = std::min(row, col);
        if (owns(j / b))
          sums.add(a(i, j), llt[col0[static_cast<std::size_t>(j)] +
                                static_cast<std::size_t>(i - j)]);
      }
    return sums;
  }
  const detail::PanelProducts products(n, b, cols, lower.data());
  for (std::size_t m = 0; m < cols.size(); ++m) {
    const int c0 = cols[m] * b;
    const double* v = products.probe(m);
    for (int i = c0; i < n; ++i) {
      double av = 0;
      for (int c = 0; c < b; ++c)
        av += a(std::max(i, c0 + c), std::min(i, c0 + c)) * v[c];
      sums.add(av, products.llt(i, m));
    }
  }
  return sums;
}

/// The relative residual of residual_sums over every tile column, where
/// `a` is symmetric and `l` holds the factor in its lower tiles. Only the
/// lower triangles of both are read.
double cholesky_residual(const TiledMatrix& a, const TiledMatrix& l);

/// Frobenius norm of the full matrix.
double frobenius(const TiledMatrix& a);

/// Max |a - b| over all elements of the lower triangle (factor comparison).
double max_lower_diff(const TiledMatrix& a, const TiledMatrix& b);

}  // namespace narma::linalg
