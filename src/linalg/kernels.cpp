#include "linalg/kernels.hpp"

#include <cmath>

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

void trsm_right_lower_trans(const double* l, double* a, int b) {
  // Solve x * L^T = a row by row: x[j] = (a[j] - sum_{k<j} x[k]*L[j][k]) / L[j][j].
  for (int r = 0; r < b; ++r) {
    double* row = a + static_cast<std::size_t>(r) * b;
    for (int j = 0; j < b; ++j) {
      double s = row[j];
      const double* lrow = l + static_cast<std::size_t>(j) * b;
      for (int k = 0; k < j; ++k) s -= row[k] * lrow[k];
      row[j] = s / lrow[j];
    }
  }
}

namespace {

/// C -= A * B^T. Four output columns per pass, each with its own
/// accumulator, so the k loop is not bound by one add chain; every dot
/// product still sums in ascending k order, bit-identical to the one-column
/// loop.
void update_nt(const double* a, const double* bt, double* c, int b) {
  const auto ub = static_cast<std::size_t>(b);
  for (std::size_t i = 0; i < ub; ++i) {
    const double* ai = a + i * ub;
    double* ci = c + i * ub;
    std::size_t j = 0;
    for (; j + 4 <= ub; j += 4) {
      const double* b0 = bt + j * ub;
      const double* b1 = b0 + ub;
      const double* b2 = b1 + ub;
      const double* b3 = b2 + ub;
      double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      for (std::size_t k = 0; k < ub; ++k) {
        const double x = ai[k];
        s0 += x * b0[k];
        s1 += x * b1[k];
        s2 += x * b2[k];
        s3 += x * b3[k];
      }
      ci[j] -= s0;
      ci[j + 1] -= s1;
      ci[j + 2] -= s2;
      ci[j + 3] -= s3;
    }
    for (; j < ub; ++j) {
      const double* bj = bt + j * ub;
      double s = 0;
      for (std::size_t k = 0; k < ub; ++k) s += ai[k] * bj[k];
      ci[j] -= s;
    }
  }
}

}  // namespace

void syrk_lower(const double* a, double* c, int b) { update_nt(a, a, c, b); }

void gemm_nt(const double* a, const double* bt, double* c, int b) {
  update_nt(a, bt, c, b);
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
