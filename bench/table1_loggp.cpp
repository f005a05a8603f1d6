// Table I — LogGP parameters (L, G) of the notified put for the three
// transports: shared memory, uGNI FMA (small transfers) and uGNI BTE
// (large transfers).
//
// Method (paper Sec. V-A): measure one-way notified-put latencies over a
// size sweep within each transport's regime, subtract the known software
// overheads (t_na at the origin, o_r + CQ poll at the target), and recover
// L as the intercept and G as the slope of an ordinary least-squares fit.
// Measured values are compared against the configured fabric parameters
// (which default to the paper's Table I) — the fit validates that the
// simulator's wire model composes as LogGP predicts.
#include <utility>

#include "bench_util.hpp"

using namespace narma;
using namespace narma::bench;

namespace {

struct TransportResult {
  model::LogGPParams fit;
  double r2;
};

TransportResult fit_transport(WorldParams wp,
                              const std::vector<std::size_t>& sizes, int n) {
  std::vector<std::pair<double, double>> pts;
  for (std::size_t s : sizes)
    pts.push_back({static_cast<double>(s), one_way_us(wp, s, n)});
  const auto lf = model::fit_linear(pts);
  // Software overheads on the one-way path, charged outside the wire time.
  const double overheads =
      to_us(wp.na.t_na) + to_us(wp.na.o_r) + to_us(wp.na.cq_poll);
  TransportResult r;
  r.fit = model::fit_loggp(pts, overheads);
  r.r2 = lf.r2;
  return r;
}

}  // namespace

int main() {
  header("Table I", "LogGP L and G of Notified Access per transport");
  const int n = reps(9);

  // Size regimes per transport. FMA serves < 4 KiB; BTE >= 4 KiB; the
  // shared-memory sweep stays above the inline-transfer limit so it
  // measures the memcpy path.
  WorldParams inter;
  WorldParams intra = WorldParams::single_node(2);

  const std::vector<std::size_t> fma_sizes{8, 64, 256, 1024, 2048, 4000};
  const std::vector<std::size_t> bte_sizes{8192, 32768, 131072, 524288,
                                           1048576};
  const std::vector<std::size_t> shm_sizes{64, 256, 1024, 8192, 65536};

  const auto shm = fit_transport(intra, shm_sizes, n);
  const auto fma = fit_transport(inter, fma_sizes, n);
  const auto bte = fit_transport(inter, bte_sizes, n);

  const auto& fp = inter.fabric;
  Table t({"transport", "L fit (us)", "L cfg (us)", "L paper (us)",
           "G fit (ns/B)", "G cfg (ns/B)", "G paper (ns/B)", "fit R^2"});
  t.add_row({"SharedMemory", Table::fmt(shm.fit.L_us, 3),
             Table::fmt(to_us(intra.fabric.shm.timing.L), 3), "0.250",
             Table::fmt(shm.fit.G_ns_per_byte, 3),
             Table::fmt(intra.fabric.shm.timing.G_ps_per_byte / 1000.0, 3), "0.080",
             Table::fmt(shm.r2, 5)});
  t.add_row({"uGNI-FMA", Table::fmt(fma.fit.L_us, 3),
             Table::fmt(to_us(fp.aries.fma.L), 3), "1.020",
             Table::fmt(fma.fit.G_ns_per_byte, 3),
             Table::fmt(fp.aries.fma.G_ps_per_byte / 1000.0, 3), "0.105",
             Table::fmt(fma.r2, 5)});
  t.add_row({"uGNI-BTE", Table::fmt(bte.fit.L_us, 3),
             Table::fmt(to_us(fp.aries.bte.L), 3), "1.320",
             Table::fmt(bte.fit.G_ns_per_byte, 3),
             Table::fmt(fp.aries.bte.G_ps_per_byte / 1000.0, 3), "0.101",
             Table::fmt(bte.r2, 5)});
  narma::bench::print(t);
  note("fit intercepts include the per-message injection gap g and (shm) "
       "the notification cache line, so fitted L sits slightly above the "
       "configured wire latency");
  return 0;
}
