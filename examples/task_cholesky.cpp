// Task-based Cholesky — the paper's dataflow case study (Sec. VI-C).
//
// A left-looking tiled factorization where produced panel tiles flow to
// consumers along a binary broadcast tree. With Notified Access, the tile
// coordinate travels in the notification tag: consumers post one wildcard
// request and learn from the returned status *which* tile arrived — no
// ring buffers, no probe loops.
#include <cstdio>

#include "apps/cholesky.hpp"
#include "narma/narma.hpp"

int main() {
  using namespace narma;
  using namespace narma::apps;

  constexpr int kRanks = 4;
  constexpr int kNt = 12;  // 12x12 tiles of 32x32 doubles (8 KB transfers)
  std::printf("tiled Cholesky, %dx%d tiles of 32x32 doubles, %d ranks\n",
              kNt, kNt, kRanks);
  std::printf("%-16s %12s %12s %14s %5s\n", "scheme", "time (ms)", "GF/s",
              "residual", "ok");

  int failed = 0;  // rows that did not verify
  for (CholeskyVariant v :
       {CholeskyVariant::kMessagePassing, CholeskyVariant::kOneSided,
        CholeskyVariant::kNotified}) {
    World world(kRanks);
    world.run([&](Rank& self) {
      CholeskyConfig cfg;
      cfg.nt = kNt;
      cfg.b = 32;
      cfg.variant = v;
      const CholeskyResult res = run_cholesky(self, cfg);
      if (self.id() == 0) {
        failed += res.verified ? 0 : 1;
        std::printf("%-16s %12.2f %12.3f %14.2e %5s\n", to_string(v),
                    to_ms(res.elapsed), res.gflops, res.residual,
                    res.verified ? "yes" : "NO");
      }
    });
  }
  return failed == 0 ? 0 : 1;
}
