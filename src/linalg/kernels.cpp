#include "linalg/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace narma::linalg {

bool potrf_lower(double* a, int b) {
  for (int j = 0; j < b; ++j) {
    double d = a[j * b + j];
    for (int k = 0; k < j; ++k) d -= a[j * b + k] * a[j * b + k];
    if (d <= 0.0 || !std::isfinite(d)) return false;
    const double ljj = std::sqrt(d);
    a[j * b + j] = ljj;
    const double inv = 1.0 / ljj;
    for (int i = j + 1; i < b; ++i) {
      double s = a[i * b + j];
      for (int k = 0; k < j; ++k) s -= a[i * b + k] * a[j * b + k];
      a[i * b + j] = s * inv;
    }
    for (int i = 0; i < j; ++i) a[i * b + j] = 0.0;  // zero upper triangle
  }
  return true;
}

namespace {

/// Solves x * L^T = a for R rows of `a` at once: x[j] = (a[j] -
/// sum_{k<j} x[k] * L[j][k]) / L[j][j]. The rows are independent, so each
/// keeps its own ascending-k chain (bit-identical to solving them one at a
/// time) while the R chains overlap in the pipeline.
template <int R>
void trsm_rows(const double* l, double* a, std::size_t ub) {
  double* x[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) x[r] = a + static_cast<std::size_t>(r) * ub;
  for (std::size_t j = 0; j < ub; ++j) {
    const double* lrow = l + j * ub;
    double s[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) s[r] = x[r][j];
    for (std::size_t k = 0; k < j; ++k) {
      const double lk = lrow[k];
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) s[r] -= x[r][k] * lk;
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) x[r][j] = s[r] / lrow[j];
  }
}

}  // namespace

void trsm_right_lower_trans(const double* l, double* a, int b) {
  const auto ub = static_cast<std::size_t>(b);
  std::size_t r = 0;
  for (; r + 4 <= ub; r += 4) trsm_rows<4>(l, a + r * ub, ub);
  for (; r < ub; ++r) trsm_rows<1>(l, a + r * ub, ub);
}

namespace {

// C -= A * B^T, register-blocked. B^T is packed k-major, kMr x 2 vectors of
// outputs stay in registers across the whole k loop, and every output lane
// sums its dot product from zero in ascending k, one multiply and one add
// per step (no FMA), then subtracts it from C: bit-identical to the
// one-column loop that UpdateKernels.BitIdenticalToNaiveLoop pins.

constexpr int kMr = 4;     // output rows per block
constexpr int kKc = 256;   // k depth of the packed panel
constexpr int kMaxNr = 8;  // output columns per block: two AVX2 vectors

// One panel per thread, shared by every rank's fiber: a kernel runs to
// completion without yielding.
alignas(64) thread_local double t_panel[kKc * kMaxNr];

template <int W>
struct VecOf {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};

/// Packs columns [j0, j0 + nc) x k in [kc, kc + kl) of B^T (rows of `bt`)
/// k-major into `panel`, nr wide; columns past nc are zero.
[[gnu::always_inline]] inline void pack_panel(const double* bt,
                                              std::size_t ub, int j0,
                                              int nc, int nr, int kc, int kl,
                                              double* panel) {
  for (int jj = 0; jj < nr; ++jj) {
    if (jj >= nc) {
      for (int k = 0; k < kl; ++k) panel[k * nr + jj] = 0.0;
      continue;
    }
    const double* src = bt + static_cast<std::size_t>(j0 + jj) * ub +
                        static_cast<std::size_t>(kc);
    for (int k = 0; k < kl; ++k) panel[k * nr + jj] = src[k];
  }
}

/// The blocked update with W-double vectors: kMr x 2W output blocks. Rows
/// past the tile's edge repeat its last row and columns past it multiply
/// zeros; neither result is stored.
template <int W>
[[gnu::always_inline]] inline void update_nt_blocked(const double* a,
                                                     const double* bt,
                                                     double* c, int b) {
  using V = typename VecOf<W>::type;
  constexpr int nr = 2 * W;
  static_assert(nr <= kMaxNr);
  const auto ub = static_cast<std::size_t>(b);
  double* const panel = t_panel;
  for (int j0 = 0; j0 < b; j0 += nr) {
    const int nc = std::min(nr, b - j0);
    for (int i0 = 0; i0 < b; i0 += kMr) {
      const int mr = std::min(kMr, b - i0);
      const double* ar[kMr];
      for (int r = 0; r < kMr; ++r)
        ar[r] = a + static_cast<std::size_t>(i0 + std::min(r, mr - 1)) * ub;
      V acc[kMr][2] = {};
      for (int kc = 0; kc < b; kc += kKc) {
        const int kl = std::min(kKc, b - kc);
        // One k chunk (b <= kKc): the panel packed for the first row block
        // serves them all.
        if (i0 == 0 || b > kKc) pack_panel(bt, ub, j0, nc, nr, kc, kl, panel);
        for (int k = 0; k < kl; ++k) {
          V p0, p1;
          __builtin_memcpy(&p0, panel + k * nr, sizeof p0);
          __builtin_memcpy(&p1, panel + k * nr + W, sizeof p1);
#pragma GCC unroll 4
          for (int r = 0; r < kMr; ++r) {
            const double x = ar[r][kc + k];
            acc[r][0] = acc[r][0] + p0 * x;
            acc[r][1] = acc[r][1] + p1 * x;
          }
        }
      }
      for (int r = 0; r < mr; ++r) {
        double* ci = c + static_cast<std::size_t>(i0 + r) * ub +
                     static_cast<std::size_t>(j0);
        if (nc < nr) {
          for (int jj = 0; jj < nc; ++jj) ci[jj] -= acc[r][jj / W][jj % W];
          continue;
        }
        for (int v = 0; v < 2; ++v) {
          V cv;
          __builtin_memcpy(&cv, ci + v * W, sizeof cv);
          cv = cv - acc[r][v];
          __builtin_memcpy(ci + v * W, &cv, sizeof cv);
        }
      }
    }
  }
}

void update_nt_baseline(const double* a, const double* bt, double* c,
                        int b) {
  update_nt_blocked<2>(a, bt, c, b);
}

#if defined(__x86_64__)
// AVX2 only: FMA stays off, so the multiply and the add round separately.
[[gnu::target("avx2")]] void update_nt_avx2(const double* a,
                                            const double* bt, double* c,
                                            int b) {
  update_nt_blocked<4>(a, bt, c, b);
}
#endif

using UpdateFn = void (*)(const double*, const double*, double*, int);

UpdateFn update_fn(KernelIsa isa) {
#if defined(__x86_64__)
  if (isa == KernelIsa::kAvx2) return update_nt_avx2;
#endif
  (void)isa;
  return update_nt_baseline;
}

void update_nt(const double* a, const double* bt, double* c, int b) {
  static const UpdateFn fn =
      update_fn(kernel_isa_supported(KernelIsa::kAvx2) ? KernelIsa::kAvx2
                                                       : KernelIsa::kBaseline);
  fn(a, bt, c, b);
}

}  // namespace

void syrk_lower(const double* a, double* c, int b) { update_nt(a, a, c, b); }

void gemm_nt(const double* a, const double* bt, double* c, int b) {
  update_nt(a, bt, c, b);
}

bool kernel_isa_supported(KernelIsa isa) {
  if (isa == KernelIsa::kBaseline) return true;
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void gemm_nt_isa(KernelIsa isa, const double* a, const double* bt, double* c,
                 int b) {
  NARMA_CHECK(kernel_isa_supported(isa)) << "update kernel ISA not supported";
  update_fn(isa)(a, bt, c, b);
}

double flops_potrf(int b) {
  const double n = b;
  return n * n * n / 3.0;
}
double flops_trsm(int b) {
  const double n = b;
  return n * n * n;
}
double flops_syrk(int b) {
  const double n = b;
  return n * n * n;
}
double flops_gemm(int b) {
  const double n = b;
  return 2.0 * n * n * n;
}

}  // namespace narma::linalg
