// Tree reduction — hierarchical fan-in (FMM / Barnes-Hut style) with the
// paper's counting-notification feature: each parent waits for all of its
// 16 children with a single persistent request (expected_count = number of
// children, wildcard source).
#include <cstdio>

#include "apps/tree.hpp"
#include "narma/narma.hpp"

int main() {
  using namespace narma;
  using namespace narma::apps;

  constexpr int kRanks = 64;
  std::printf("16-ary tree reduction over %d ranks, 64 B messages\n",
              kRanks);
  std::printf("%-16s %14s %9s\n", "scheme", "us/reduction", "ok");

  int failed = 0;  // rows that did not verify
  for (TreeVariant v :
       {TreeVariant::kMessagePassing, TreeVariant::kPscw,
        TreeVariant::kNotified, TreeVariant::kVendorReduce}) {
    World world(kRanks);
    world.run([&](Rank& self) {
      TreeConfig cfg;
      cfg.elems = 8;  // 64 B
      cfg.arity = 16;
      cfg.reps = 5;
      cfg.variant = v;
      const TreeResult res = run_tree(self, cfg);
      if (self.id() == 0) {
        failed += res.verified ? 0 : 1;
        std::printf("%-16s %14.2f %9s\n", to_string(v), res.per_op_us,
                    res.verified ? "yes" : "NO");
      }
    });
  }
  return failed == 0 ? 0 : 1;
}
