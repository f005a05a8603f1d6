// Halo exchange — the producer-consumer pattern the paper's introduction
// motivates, on a realistic scenario: the PRK pipelined stencil run with
// all four synchronization schemes side by side.
//
// Demonstrates: windows over user memory, per-row put_notify into a
// neighbor's ghost cells, persistent requests re-armed every row, and how
// the same computation performs under message passing, fence, PSCW, and
// Notified Access.
#include <cstdio>

#include "apps/stencil.hpp"
#include "narma/narma.hpp"

int main() {
  using namespace narma;
  using namespace narma::apps;

  constexpr int kRanks = 8;
  std::printf("pipelined 3-point stencil, %d ranks, 256x2048 domain\n",
              kRanks);
  std::printf("%-16s %12s %10s %9s\n", "scheme", "GMOPS", "corner", "ok");

  int failed = 0;  // rows that did not verify
  for (StencilVariant v :
       {StencilVariant::kMessagePassing, StencilVariant::kFence,
        StencilVariant::kPscw, StencilVariant::kNotified}) {
    World world(kRanks);
    world.run([&](Rank& self) {
      StencilConfig cfg;
      cfg.rows = 256;
      cfg.total_cols = 2048;
      cfg.iters = 2;
      cfg.variant = v;
      const StencilResult res = run_stencil(self, cfg);
      if (self.id() == 0) {
        failed += res.verified ? 0 : 1;
        std::printf("%-16s %12.4f %10.0f %9s\n", to_string(v), res.gmops,
                    res.corner, res.verified ? "yes" : "NO");
      }
    });
  }
  return failed == 0 ? 0 : 1;
}
