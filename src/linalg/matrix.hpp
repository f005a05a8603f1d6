// Dense-matrix helpers: SPD problem generation (whole matrix or one tile at
// a time), a sequential tiled Cholesky reference, and the residual check
// used by tests and the Cholesky application to validate every distributed
// variant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

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

/// Running sums of the relative residual || A - L L^T ||_F / || A ||_F.
struct ResidualSums {
  double diff2 = 0;  // sum of (A - L L^T)(i, j)^2
  double ref2 = 0;   // sum of A(i, j)^2

  /// Adds one entry: `a` = A(i, j), `llt` = (L L^T)(i, j).
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

/// Calls fn(row, col) for every entry of an n x n matrix the residual check
/// covers. Reconstructing L L^T exactly is O(n^3), so above n = 384 this is
/// a fixed pseudo-random sample of 2^16 entries, deterministic in n; below,
/// all n^2 entries in row-major order.
template <class Fn>
void for_each_residual_entry(int n, Fn&& fn) {
  constexpr int kExactLimit = 384;
  constexpr int kSamples = 1 << 16;
  if (n <= kExactLimit) {
    for (int row = 0; row < n; ++row)
      for (int col = 0; col < n; ++col) fn(row, col);
    return;
  }
  Xoshiro256 rng(0x5eedu + static_cast<std::uint64_t>(n));
  const auto un = static_cast<std::uint64_t>(n);
  for (int s = 0; s < kSamples; ++s) {
    const int row = static_cast<int>(rng.next_below(un));
    const int col = static_cast<int>(rng.next_below(un));
    fn(row, col);
  }
}

/// (L L^T)(i, j) for i >= j: the inner product of factor rows i and j over
/// k = 0..j, in ascending k order, walking contiguous tile rows.
/// `tile(ti, tk)` returns the b x b row-major factor tile (ti, tk); only
/// tiles with tk <= j / b are read.
template <class TileOf>
double llt_entry(int i, int j, int b, TileOf&& tile) {
  const int ti = i / b, tj = j / b;
  const std::size_t ri = static_cast<std::size_t>(i % b) * b;
  const std::size_t rj = static_cast<std::size_t>(j % b) * b;
  double s = 0;
  for (int tk = 0; tk <= tj; ++tk) {
    const double* li = tile(ti, tk) + ri;
    const double* lj = tile(tj, tk) + rj;
    const int kend = tk == tj ? j % b + 1 : b;
    for (int k = 0; k < kend; ++k) s += li[k] * lj[k];
  }
  return s;
}

/// || A - L * L^T ||_F / || A ||_F over the for_each_residual_entry entries,
/// where `a` is symmetric and `l` holds the factor in its lower tiles. Only
/// the lower triangles of both are read.
double cholesky_residual(const TiledMatrix& a, const TiledMatrix& l);

/// Frobenius norm of the full matrix.
double frobenius(const TiledMatrix& a);

/// Max |a - b| over all elements of the lower triangle (factor comparison).
double max_lower_diff(const TiledMatrix& a, const TiledMatrix& b);

}  // namespace narma::linalg
