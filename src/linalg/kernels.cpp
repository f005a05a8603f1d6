#include "linalg/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <vector>

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

// C -= A * B^T, register-blocked. B^T is packed k-major in column blocks nr
// = 2W wide, kMr x 2 vectors of outputs stay in registers across the whole
// k loop, and every output lane sums its dot product from zero in ascending
// k, one multiply and one add per step, then subtracts it from C:
// bit-identical to the one-column loop that
// UpdateKernels.BitIdenticalToNaiveLoop pins. narma_linalg builds with
// -ffp-contract=off, so no path fuses the multiply and the add into an FMA
// (the no_fused_multiply_add ctest disassembles the library to check).

constexpr int kMr = 4;  // output rows per block

template <int W>
struct VecOf {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};

/// Output columns per block of a path: two vectors.
constexpr int nr_of(KernelIsa isa) {
  return isa == KernelIsa::kAvx512 ? 16 : isa == KernelIsa::kAvx2 ? 8 : 4;
}

/// Doubles of a packed b x b panel: ceil(b / nr) blocks of b x nr.
std::size_t panel_size(int b, int nr) {
  return static_cast<std::size_t>((b + nr - 1) / nr) * nr *
         static_cast<std::size_t>(b);
}

/// Packs B^T (rows of `bt`) into `panel`: column block j0 / nr holds
/// panel[k * nr + jj] = bt[j0 + jj][k], all k; columns past b are zero.
template <int nr>
void pack_panel(const double* bt, int b, double* panel) {
  const auto ub = static_cast<std::size_t>(b);
  for (int j0 = 0; j0 < b; j0 += nr, panel += ub * nr) {
    const int nc = std::min(nr, b - j0);
    const double* src = bt + static_cast<std::size_t>(j0) * ub;
    for (std::size_t k = 0; k < ub; ++k) {
      double* dst = panel + k * nr;
      if (nc == nr) {
#pragma GCC unroll 16
        for (int jj = 0; jj < nr; ++jj) dst[jj] = src[jj * ub + k];
        continue;
      }
      for (int jj = 0; jj < nr; ++jj)
        dst[jj] = jj < nc ? src[jj * ub + k] : 0.0;
    }
  }
}

/// The blocked update with W-double vectors over a packed panel: kMr x 2W
/// output blocks. Rows past the tile's edge repeat its last row and
/// columns past it multiply zeros; neither result is stored.
template <int W>
[[gnu::always_inline]] inline void update_packed(const double* a,
                                                 const double* panel,
                                                 double* c, int b) {
  using V = typename VecOf<W>::type;
  constexpr int nr = 2 * W;
  const auto ub = static_cast<std::size_t>(b);
  for (int j0 = 0; j0 < b; j0 += nr, panel += ub * nr) {
    const int nc = std::min(nr, b - j0);
    for (int i0 = 0; i0 < b; i0 += kMr) {
      const int mr = std::min(kMr, b - i0);
      const double* ar[kMr];
      for (int r = 0; r < kMr; ++r)
        ar[r] = a + static_cast<std::size_t>(i0 + std::min(r, mr - 1)) * ub;
      V acc[kMr][2] = {};
      for (std::size_t k = 0; k < ub; ++k) {
        V p0, p1;
        __builtin_memcpy(&p0, panel + k * nr, sizeof p0);
        __builtin_memcpy(&p1, panel + k * nr + W, sizeof p1);
#pragma GCC unroll 4
        for (int r = 0; r < kMr; ++r) {
          const double x = ar[r][k];
          acc[r][0] = acc[r][0] + p0 * x;
          acc[r][1] = acc[r][1] + p1 * x;
        }
      }
      for (int r = 0; r < mr; ++r) {
        double* ci = c + static_cast<std::size_t>(i0 + r) * ub +
                     static_cast<std::size_t>(j0);
        // Vectors the tile holds whole go back as vectors; the lanes of
        // the first one it does not, one at a time from a copy.
        for (int v = 0; v < 2; ++v) {
          double* cv_at = ci + v * W;
          if ((v + 1) * W > nc) {
            double lanes[W];
            __builtin_memcpy(lanes, &acc[r][v], sizeof lanes);
            for (int jj = 0; jj < nc - v * W; ++jj) cv_at[jj] -= lanes[jj];
            break;
          }
          V cv;
          __builtin_memcpy(&cv, cv_at, sizeof cv);
          cv = cv - acc[r][v];
          __builtin_memcpy(cv_at, &cv, sizeof cv);
        }
      }
    }
  }
}

void update_baseline(const double* a, const double* panel, double* c,
                     int b) {
  update_packed<2>(a, panel, c, b);
}

#if defined(__x86_64__)
// AVX2 alone has no FMA instructions. AVX-512F has them, and only
// -ffp-contract=off keeps GCC from fusing the multiply and the add.
[[gnu::target("avx2")]] void update_avx2(const double* a,
                                         const double* panel, double* c,
                                         int b) {
  update_packed<4>(a, panel, c, b);
}

[[gnu::target("avx512f")]] void update_avx512(const double* a,
                                              const double* panel, double* c,
                                              int b) {
  update_packed<8>(a, panel, c, b);
}
#endif

using UpdateFn = void (*)(const double*, const double*, double*, int);

UpdateFn update_fn(KernelIsa isa) {
#if defined(__x86_64__)
  if (isa == KernelIsa::kAvx512) return update_avx512;
  if (isa == KernelIsa::kAvx2) return update_avx2;
#endif
  (void)isa;
  return update_baseline;
}

/// C -= A * B^T on a supported path, packing B^T into a per-thread panel.
/// Ranks' fibers share a thread, but a kernel runs to completion without
/// yielding, so one panel per path serves them all.
void update_per_call(KernelIsa isa, const double* a, const double* bt,
                     double* c, int b) {
  thread_local std::optional<PackedPanel> panels[3];
  std::optional<PackedPanel>& panel = panels[static_cast<int>(isa)];
  if (!panel) panel.emplace(isa);
  panel->pack(bt, b);
  panel->update(a, c);
}

}  // namespace

void PackedPanel::Free::operator()(double* p) const { std::free(p); }

PackedPanel::PackedPanel(KernelIsa isa) : by_size_(false), isa_(isa) {
  NARMA_CHECK(kernel_isa_supported(isa)) << "update kernel ISA not supported";
}

void PackedPanel::pack(const double* bt, int b) {
  if (by_size_) isa_ = update_isa(b);
  const int nr = nr_of(isa_);
  const std::size_t need = panel_size(b, nr);
  if (need > capacity_) {
    // 64-byte aligned, so no packed row straddles more cache lines than it
    // must.
    data_.reset(static_cast<double*>(
        std::aligned_alloc(64, (need * sizeof(double) + 63) / 64 * 64)));
    NARMA_CHECK(data_ != nullptr) << "out of memory for a packed panel";
    capacity_ = need;
  }
  b_ = b;
  if (nr == 16)
    pack_panel<16>(bt, b, data_.get());
  else if (nr == 8)
    pack_panel<8>(bt, b, data_.get());
  else
    pack_panel<4>(bt, b, data_.get());
}

void PackedPanel::update(const double* a, double* c) const {
  NARMA_ASSERT(b_ > 0);
  update_fn(isa_)(a, data_.get(), c, b_);
}

void syrk_lower(const double* a, double* c, int b) { gemm_nt(a, a, c, b); }

void gemm_nt(const double* a, const double* bt, double* c, int b) {
  update_per_call(update_isa(b), a, bt, c, b);
}

bool kernel_isa_supported(KernelIsa isa) {
  if (isa == KernelIsa::kBaseline) return true;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (isa == KernelIsa::kAvx512) return __builtin_cpu_supports("avx512f") != 0;
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

KernelIsa update_isa(int b) {
  // Widest first; the CPU's support is looked up once.
  static const std::vector<KernelIsa> supported = [] {
    std::vector<KernelIsa> v;
    for (const KernelIsa isa :
         {KernelIsa::kAvx512, KernelIsa::kAvx2, KernelIsa::kBaseline})
      if (kernel_isa_supported(isa)) v.push_back(isa);
    return v;
  }();
  for (const KernelIsa isa : supported)
    if (b % nr_of(isa) == 0) return isa;
  return supported.front();
}

void gemm_nt_isa(KernelIsa isa, const double* a, const double* bt, double* c,
                 int b) {
  NARMA_CHECK(kernel_isa_supported(isa)) << "update kernel ISA not supported";
  update_per_call(isa, a, bt, c, b);
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
