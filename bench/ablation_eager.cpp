// Ablation — eager/rendezvous threshold of the message-passing baseline.
//
// Sweeps the one-way latency across sizes for several thresholds, exposing
// the protocol crossover: below the threshold the receiver pays staging
// copies; above it the RTS/CTS round trip. This is the baseline cost
// structure Notified Access sidesteps entirely (zero copies, no handshake).
#include "bench_util.hpp"

using namespace narma;
using namespace narma::bench;

int main() {
  const int n = reps(9);
  header("Ablation", "MP eager/rendezvous crossover, one-way latency (us)");

  const std::vector<std::size_t> thresholds{2048, 8192, 65536};
  Table t({"size", "thr=2KiB", "thr=8KiB", "thr=64KiB", "NotifiedAccess"});
  for (std::size_t s : fig3_sizes()) {
    std::vector<std::string> row{fmt_bytes(s)};
    for (std::size_t thr : thresholds) {
      WorldParams wp;
      wp.mp.eager_threshold = thr;
      row.push_back(Table::fmt(one_way_us(wp, s, n, true), 2));
    }
    // Reference: the NA one-way for the same size.
    row.push_back(Table::fmt(one_way_us({}, s, n), 2));
    t.add_row(std::move(row));
  }
  narma::bench::print(t);
  return 0;
}
