// google-benchmark microbenchmarks of the Cholesky tile kernels on the real
// CPU: the SYRK/GEMM update on each instruction-set path, and the panel
// solve. Virtual time charges these kernels by flop count, so their host
// speed moves only the Fig. 5 Cholesky's wall time; the GF/s counters show
// that speed outside the whole-app benchmarks.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "linalg/kernels.hpp"

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

BENCHMARK_MAIN();
