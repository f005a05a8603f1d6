// google-benchmark microbenchmarks of the Cholesky tile kernels on the real
// CPU: the SYRK/GEMM update on each instruction-set path, one column step of
// it with per-call packing against one packed panel, the panel solve, and
// one rank's residual check. Virtual time charges none of this, so its
// host speed moves only the Fig. 5 Cholesky's wall time; the counters show
// that speed outside the whole-app benchmarks.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

using namespace narma;
using linalg::KernelIsa;

namespace {

std::vector<double> random_tile(int b, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> t(static_cast<std::size_t>(b) * b);
  for (double& v : t) v = 2.0 * rng.next_double() - 1.0;
  return t;
}

void set_rate(benchmark::State& state, double flops_per_call) {
  state.counters["GF/s"] = benchmark::Counter(
      flops_per_call * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

}  // namespace

static void BM_GemmNt(benchmark::State& state, KernelIsa isa) {
  if (!linalg::kernel_isa_supported(isa)) {
    state.SkipWithError("instruction set not supported by this CPU");
    return;
  }
  const int b = static_cast<int>(state.range(0));
  const auto a = random_tile(b, 1), bt = random_tile(b, 2);
  auto c = random_tile(b, 3);
  for (auto _ : state) {
    linalg::gemm_nt_isa(isa, a.data(), bt.data(), c.data(), b);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_rate(state, linalg::flops_gemm(b));
}
BENCHMARK_CAPTURE(BM_GemmNt, baseline, KernelIsa::kBaseline)
    ->Arg(8)->Arg(32)->Arg(64);
BENCHMARK_CAPTURE(BM_GemmNt, avx2, KernelIsa::kAvx2)->Arg(8)->Arg(32)->Arg(64);
BENCHMARK_CAPTURE(BM_GemmNt, avx512, KernelIsa::kAvx512)
    ->Arg(8)->Arg(32)->Arg(64);

// One column step (j, k) of the left-looking Cholesky at the Fig. 5 shape
// (b = 32, nt = 48, j = 0 after the first column): a SYRK into the
// diagonal tile and 47 GEMMs below it, all against B^T = tile(j, k).
// Arg 0 packs B^T on every call (gemm_nt_isa); arg 1 packs it once into a
// PackedPanel that serves all 48 updates.
static void BM_ColumnStep(benchmark::State& state, KernelIsa isa) {
  if (!linalg::kernel_isa_supported(isa)) {
    state.SkipWithError("instruction set not supported by this CPU");
    return;
  }
  constexpr int kB = 32, kGemms = 47;
  const bool pack_once = state.range(0) != 0;
  const auto bt = random_tile(kB, 1);
  std::vector<std::vector<double>> a, c;
  for (int i = 0; i < kGemms; ++i) {
    a.push_back(random_tile(kB, 10 + static_cast<std::uint64_t>(i)));
    c.push_back(random_tile(kB, 100 + static_cast<std::uint64_t>(i)));
  }
  auto diag = random_tile(kB, 2);
  linalg::PackedPanel panel(isa);
  for (auto _ : state) {
    if (pack_once) {
      panel.pack(bt.data(), kB);
      panel.update(bt.data(), diag.data());
      for (int i = 0; i < kGemms; ++i)
        panel.update(a[static_cast<std::size_t>(i)].data(),
                     c[static_cast<std::size_t>(i)].data());
    } else {
      linalg::gemm_nt_isa(isa, bt.data(), bt.data(), diag.data(), kB);
      for (int i = 0; i < kGemms; ++i)
        linalg::gemm_nt_isa(isa, a[static_cast<std::size_t>(i)].data(),
                            bt.data(), c[static_cast<std::size_t>(i)].data(),
                            kB);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_rate(state, linalg::flops_syrk(kB) + kGemms * linalg::flops_gemm(kB));
}
BENCHMARK_CAPTURE(BM_ColumnStep, baseline, KernelIsa::kBaseline)
    ->ArgName("pack_once")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_ColumnStep, avx2, KernelIsa::kAvx2)
    ->ArgName("pack_once")->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_ColumnStep, avx512, KernelIsa::kAvx512)
    ->ArgName("pack_once")->Arg(0)->Arg(1);

static void BM_TrsmRight(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  auto l = random_tile(b, 4);
  for (int i = 0; i < b; ++i) l[static_cast<std::size_t>(i) * b + i] += b;
  const auto a0 = random_tile(b, 5);
  auto a = a0;
  for (auto _ : state) {
    // Solving in place repeatedly would drive the tile into subnormals, so
    // each call restarts from the same right-hand side (the b^2 copy is
    // timed with it).
    a = a0;
    linalg::trsm_right_lower_trans(l.data(), a.data(), b);
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  set_rate(state, linalg::flops_trsm(b));
}
BENCHMARK(BM_TrsmRight)->Arg(8)->Arg(32)->Arg(64);

// One owner's share of the panel residual check of an order-n factor whose
// 32 x 32 tile columns are dealt round-robin to 16 ranks (the Fig. 5
// layout): the columns tj = 0, 16, 32, ... tiles/s counts the lower-triangle
// tiles of A - L L^T those columns cover.
static void BM_ResidualCheck(benchmark::State& state) {
  constexpr int kB = 32, kRanks = 16;
  const int nt = static_cast<int>(state.range(0)) / kB;
  const linalg::TiledMatrix a = linalg::generate_spd(nt, kB, 1);
  linalg::TiledMatrix l = a;
  if (!linalg::cholesky_tiled_reference(l)) {
    state.SkipWithError("test matrix not positive definite");
    return;
  }
  const auto owns = [](int tj) { return tj % kRanks == 0; };
  double tiles = 0;
  for (int tj = 0; tj < nt; ++tj)
    if (owns(tj)) tiles += nt - tj;
  for (auto _ : state) {
    const linalg::ResidualSums sums = linalg::residual_sums(
        a.dim(), kB, owns, [&](int i, int j) { return a.at(i, j); },
        [&](int ti, int tk) { return l.tile(ti, tk); });
    benchmark::DoNotOptimize(sums);
  }
  state.counters["tiles/s"] = benchmark::Counter(
      tiles * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ResidualCheck)->Arg(416)->Arg(1536)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
