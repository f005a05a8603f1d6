// Figure 5 — weak-scaling task-based Cholesky factorization with 32 x 32
// double tiles (8 KB transfers, the paper's configuration: "an extreme
// case of a very small computation per process").
//
// Series: Message Passing (probe + recv on tag-encoded coordinates), One
// Sided (ring buffer + fetch_and_op + flush + coordinate put), Notified
// Access (coordinate in the notification tag). Paper result: up to 2x
// speedup of NA over Message Passing; One Sided trails both.
#include <limits>

#include "apps/cholesky.hpp"
#include "bench_util.hpp"

using namespace narma;
using namespace narma::apps;
using namespace narma::bench;

int main() {
  // At least one tile column per rank, and few enough that the 16-rank
  // row's cols_per_rank * 16 tiles stay inside int.
  constexpr int kMaxRanks = 16;
  const int cols_per_rank = env::get_int(
      "NARMA_CHOL_COLS", 3, 1, std::numeric_limits<int>::max() / kMaxRanks);
  // Tile size and kernel rate are CholeskyConfig's defaults: the paper's 32
  // x 32 tiles, and the rate of its testbed class (tuned BLAS on a Xeon E5
  // core), which keeps the compute/communication balance of Fig. 5
  // independent of this host's kernels.
  const CholeskyConfig defaults;
  const int b = defaults.b;

  header("Figure 5", "weak-scaling task Cholesky (total time, ms)");
  note("tiles " + std::to_string(b) + "x" + std::to_string(b) +
       " doubles (" + std::to_string(b * b * 8 / 1024) +
       " KB transfers), " + std::to_string(cols_per_rank) +
       " tile columns per rank");
  note("compute: kernels at " + Table::fmt(defaults.model_gflops, 1) +
       " GF/s");

  const std::vector<CholeskyVariant> variants{
      CholeskyVariant::kMessagePassing, CholeskyVariant::kOneSided,
      CholeskyVariant::kNotified};

  Table t({"ranks", "tiles", "MsgPassing", "OneSided", "NotifiedAccess",
           "MP/NA", "wall_ms", "residual ok"});
  for (int ranks : {2, 4, 8, kMaxRanks}) {
    const int nt = cols_per_rank * ranks;
    std::vector<std::string> row{Table::fmt(static_cast<long long>(ranks)),
                                 std::to_string(nt) + "x" +
                                     std::to_string(nt)};
    double mp_t = 0, na_t = 0;
    bool all_ok = true;
    // Host wall-clock of the row, for the apps regression gate.
    const std::uint64_t wall0 = wallclock_ns();
    for (CholeskyVariant v : variants) {
      World world(ranks);
      double ms_elapsed = 0;
      bool ok = false;
      world.run([&](Rank& self) {
        CholeskyConfig cfg;
        cfg.nt = nt;
        cfg.variant = v;
        const auto res = run_cholesky(self, cfg);
        if (self.id() == 0) {
          ms_elapsed = to_ms(res.elapsed);
          ok = res.verified;
        }
      });
      all_ok = all_ok && ok;
      row.push_back(Table::fmt(ms_elapsed, 2));
      if (v == CholeskyVariant::kMessagePassing) mp_t = ms_elapsed;
      if (v == CholeskyVariant::kNotified) na_t = ms_elapsed;
    }
    row.push_back(Table::fmt(mp_t / na_t, 2));
    row.push_back(
        Table::fmt(static_cast<double>(wallclock_ns() - wall0) / 1e6, 1));
    row.push_back(all_ok ? "yes" : "NO");
    t.add_row(std::move(row));
  }
  narma::bench::print(t);
  return 0;
}
