// Dense-matrix helpers: SPD problem generation (whole matrix or one tile at
// a time), a sequential tiled Cholesky reference, and the residual check
// used by tests and the Cholesky application to validate every distributed
// variant.
#pragma once

#include <algorithm>
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

/// Above this order the residual check samples entries instead of checking
/// all n^2 (reconstructing L L^T exactly is O(n^3)).
constexpr int kResidualExactLimit = 384;

/// Calls fn(row, col) for every entry of an n x n matrix the residual check
/// covers: above kResidualExactLimit a fixed pseudo-random sample of 2^16
/// entries, deterministic in n; otherwise all n^2 entries in row-major
/// order.
template <class Fn>
void for_each_residual_entry(int n, Fn&& fn) {
  constexpr int kSamples = 1 << 16;
  if (n <= kResidualExactLimit) {
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

namespace detail {

/// Scratch of residual_sums: the kept samples in sample order and their
/// evaluation order. One per thread, reused by every call; a caller must
/// not let another residual_sums run on its thread (another rank's fiber)
/// before it returns.
struct ResidualScratch {
  struct Sample {
    int i, j;
    double llt;
  };
  std::vector<Sample> samples;
  std::vector<std::uint64_t> by_row;  // (i << 32) | index into samples
};
ResidualScratch& residual_scratch();

}  // namespace detail

/// Sums (A - L L^T)(i, j) over the for_each_residual_entry(n) entries with
/// i = max(row, col), j = min(row, col) for which keep(i, j) holds.
/// `a(i, j)` returns A(i, j); `tile` is as for llt_entry. Sampled entries
/// are evaluated in ascending i, so consecutive ones read the same band of
/// factor tiles, and added in sample order: the sums are bit-identical to
/// evaluating each entry as it is drawn.
template <class Keep, class EntryOfA, class TileOf>
ResidualSums residual_sums(int n, int b, Keep&& keep, EntryOfA&& a,
                           TileOf&& tile) {
  ResidualSums sums;
  if (n <= kResidualExactLimit) {
    for_each_residual_entry(n, [&](int row, int col) {
      const int i = std::max(row, col), j = std::min(row, col);
      if (keep(i, j)) sums.add(a(i, j), llt_entry(i, j, b, tile));
    });
    return sums;
  }
  detail::ResidualScratch& s = detail::residual_scratch();
  s.samples.clear();
  s.by_row.clear();
  for_each_residual_entry(n, [&](int row, int col) {
    const int i = std::max(row, col), j = std::min(row, col);
    if (!keep(i, j)) return;
    s.by_row.push_back(static_cast<std::uint64_t>(i) << 32 | s.samples.size());
    s.samples.push_back({i, j, 0.0});
  });
  std::sort(s.by_row.begin(), s.by_row.end());
  for (const std::uint64_t key : s.by_row) {
    detail::ResidualScratch::Sample& e = s.samples[key & 0xffffffffu];
    e.llt = llt_entry(e.i, e.j, b, tile);
  }
  for (const detail::ResidualScratch::Sample& e : s.samples)
    sums.add(a(e.i, e.j), e.llt);
  return sums;
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
