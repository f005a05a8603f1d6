// Figure 4b — weak-scaling pipelined stencil, constant 1280 x 1280 block
// per PE (paper), GMOPS.
//
// Paper result: Notified Access improves the pipelined stencil by more than
// 2.17x over Message Passing; PSCW beats fence (pairwise vs global
// synchronization), both trail message passing.
#include "apps/stencil.hpp"
#include "bench_util.hpp"

using namespace narma;
using namespace narma::apps;
using namespace narma::bench;

int main() {
  const double sc = scale();
  const int per_pe = std::max(64, static_cast<int>(1280 * sc));
  // Iterations and the per-point compute charge are StencilConfig's
  // defaults, the same the CLI and the tests run.
  const StencilConfig defaults;

  header("Figure 4b", "weak-scaling pipelined stencil (GMOPS, higher=better)");
  note("block " + std::to_string(per_pe) + " x " + std::to_string(per_pe) +
       " per PE, " + std::to_string(defaults.iters) + " iterations");
  note("compute: " + Table::fmt(to_ns(defaults.per_point), 2) + " ns/point");

  const std::vector<StencilVariant> variants{
      StencilVariant::kMessagePassing, StencilVariant::kFence,
      StencilVariant::kPscw, StencilVariant::kNotified};

  Table t({"ranks", "MsgPassing", "OS-Fence", "OS-PSCW", "NotifiedAccess",
           "NA/MP"});
  for (int ranks : {2, 4, 8, 16, 32}) {
    std::vector<std::string> row{Table::fmt(static_cast<long long>(ranks))};
    double mp_g = 0, na_g = 0;
    for (StencilVariant v : variants) {
      World world(ranks);
      double g = 0;
      world.run([&](Rank& self) {
        StencilConfig cfg;
        cfg.rows = per_pe;
        cfg.total_cols = per_pe * ranks;
        cfg.variant = v;
        const auto res = run_stencil(self, cfg);
        if (self.id() == 0) {
          NARMA_CHECK(res.verified) << "stencil verification failed";
          g = res.gmops;
        }
      });
      row.push_back(Table::fmt(g, 4));
      if (v == StencilVariant::kMessagePassing) mp_g = g;
      if (v == StencilVariant::kNotified) na_g = g;
    }
    row.push_back(Table::fmt(na_g / mp_g, 2));
    t.add_row(std::move(row));
  }
  narma::bench::print(t);
  return 0;
}
