// Tile kernels for the task-based Cholesky factorization (paper Sec. VI-C).
//
// The four operations are the classic PLASMA/LAPACK tile-algorithm kernels
// (Kurzak et al.): DPOTRF on the diagonal tile, DTRSM for the panel, DSYRK
// for the symmetric diagonal update and DGEMM for the trailing update. Tiles
// are square, row-major, b x b doubles, factorizing the lower triangle
// (A = L * L^T).
#pragma once

#include <cstddef>
#include <memory>

namespace narma::linalg {

/// In-place Cholesky factorization of the lower triangle of the b x b tile
/// `a` (upper triangle is zeroed). Returns false if the tile is not positive
/// definite.
bool potrf_lower(double* a, int b);

/// Panel solve: X * L^T = A, in place on `a`, where `l` holds the lower
/// Cholesky factor of the diagonal tile (as produced by potrf_lower).
void trsm_right_lower_trans(const double* l, double* a, int b);

/// Symmetric rank-b update: C -= A * A^T (full tile updated; C stays
/// symmetric if it starts symmetric).
void syrk_lower(const double* a, double* c, int b);

/// General update: C -= A * B^T.
void gemm_nt(const double* a, const double* bt, double* c, int b);

/// Instruction-set paths of the SYRK/GEMM update. Every path is
/// bit-identical to the naive ascending-k loop; syrk_lower, gemm_nt and a
/// default PackedPanel run the one update_isa picks (kAvx2 and kAvx512 only
/// on x86-64).
enum class KernelIsa { kBaseline, kAvx2, kAvx512 };
bool kernel_isa_supported(KernelIsa isa);

/// The path for b x b tiles: the widest supported one whose column block
/// (4, 8 or 16 doubles) divides b, else the widest supported. A block that
/// runs past the tile's edge multiplies padding and stores its columns one
/// at a time, which costs more than narrower vectors do: bench/micro_linalg
/// BM_GemmNt runs b = 8 and 24 faster on AVX2 than on AVX-512.
KernelIsa update_isa(int b);

/// gemm_nt on one given path (tests and microbenchmarks); `isa` must be
/// supported.
void gemm_nt_isa(KernelIsa isa, const double* a, const double* bt, double* c,
                 int b);

/// One B^T packed for many updates C -= A * B^T that share it: the
/// left-looking Cholesky's column step (j, k) updates tile(j, j) and every
/// tile(i, j) below it with the same tile(j, k). pack() copies it once;
/// each update() is bit-identical to gemm_nt(a, bt, c, b) on the same path.
/// The handle owns its storage, so a pack stays current until the next
/// pack() on this handle whatever other code runs in between.
class PackedPanel {
 public:
  /// Packs for update_isa(b) of each pack's b.
  PackedPanel() = default;
  /// Packs for `isa`, which must be supported.
  explicit PackedPanel(KernelIsa isa);

  /// Packs the b x b tile `bt`. It is read only here.
  void pack(const double* bt, int b);
  /// C -= A * B^T with the B^T of the last pack().
  void update(const double* a, double* c) const;

 private:
  struct Free {
    void operator()(double* p) const;
  };
  bool by_size_ = true;  // pick isa_ per pack with update_isa
  KernelIsa isa_ = KernelIsa::kBaseline;
  int b_ = 0;
  std::size_t capacity_ = 0;  // doubles allocated
  std::unique_ptr<double[], Free> data_;
};

/// Approximate flop counts (used to report GFLOP rates).
double flops_potrf(int b);
double flops_trsm(int b);
double flops_syrk(int b);
double flops_gemm(int b);

}  // namespace narma::linalg
