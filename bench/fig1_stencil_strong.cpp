// Figure 1 — strong-scaling pipelined stencil (PRK Sync_p2p), GMOPS.
//
// Fixed domain (paper: 1280 x 12800), ranks swept; series: Message Passing,
// One Sided fence, One Sided PSCW, Notified Access. Paper result: NA
// consistently outperforms message passing by more than 1.4x on 32
// processes; plain One Sided schemes trail message passing.
//
// NARMA_SCALE shrinks the domain for smoke runs (default 1.0 = paper size).
#include "apps/stencil.hpp"
#include "bench_util.hpp"

using namespace narma;
using namespace narma::apps;
using namespace narma::bench;

int main() {
  const double sc = scale();
  const int rows = std::max(32, static_cast<int>(1280 * sc));
  const int cols = std::max(64, static_cast<int>(12800 * sc));
  // Iterations and the per-point compute charge are StencilConfig's
  // defaults, the same the CLI and the tests run.
  const StencilConfig defaults;

  header("Figure 1", "strong-scaling pipelined stencil (GMOPS, higher=better)");
  note("domain " + std::to_string(rows) + " x " + std::to_string(cols) +
       ", " + std::to_string(defaults.iters) + " iterations");
  note("compute: " + Table::fmt(to_ns(defaults.per_point), 2) + " ns/point");

  const std::vector<StencilVariant> variants{
      StencilVariant::kMessagePassing, StencilVariant::kFence,
      StencilVariant::kPscw, StencilVariant::kNotified};

  Table t({"ranks", "MsgPassing", "OS-Fence", "OS-PSCW", "NotifiedAccess",
           "NA/MP", "wall_ms", "verified"});
  for (int ranks : {2, 4, 8, 16, 32}) {
    std::vector<std::string> row{Table::fmt(static_cast<long long>(ranks))};
    double mp_g = 0, na_g = 0;
    bool all_ok = true;
    // Host wall-clock of the whole row (all variants): the simulator-cost
    // number the apps regression gate tracks.
    const std::uint64_t wall0 = wallclock_ns();
    for (StencilVariant v : variants) {
      World world(ranks);
      double g = 0;
      bool ok = false;
      world.run([&](Rank& self) {
        StencilConfig cfg;
        cfg.rows = rows;
        cfg.total_cols = cols;
        cfg.variant = v;
        const auto res = run_stencil(self, cfg);
        if (self.id() == 0) {
          g = res.gmops;
          ok = res.verified;
        }
      });
      all_ok = all_ok && ok;
      row.push_back(Table::fmt(g, 4));
      if (v == StencilVariant::kMessagePassing) mp_g = g;
      if (v == StencilVariant::kNotified) na_g = g;
    }
    row.push_back(Table::fmt(na_g / mp_g, 2));
    row.push_back(
        Table::fmt(static_cast<double>(wallclock_ns() - wall0) / 1e6, 1));
    row.push_back(all_ok ? "yes" : "NO");
    t.add_row(std::move(row));
  }
  narma::bench::print(t);
  return 0;
}
