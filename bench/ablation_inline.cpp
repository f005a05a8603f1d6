// Ablation — shared-memory inline transfer (paper Sec. IV-C).
//
// Small intra-node notified puts can fold the payload into the cache-line
// notification entry instead of a separate memcpy + notification. This
// harness compares one-way latencies with the optimization on and off
// across sizes around the inline limit (32 B).
#include "bench_util.hpp"

using namespace narma;
using namespace narma::bench;

int main() {
  const int n = reps(9);
  header("Ablation", "shm inline transfer on/off, one-way latency (us)");

  Table t({"size", "inline on", "inline off", "speedup"});
  for (std::size_t s : {1u, 8u, 16u, 32u, 64u, 256u, 4096u}) {
    WorldParams wp = WorldParams::single_node(2);
    const double on = one_way_us(wp, s, n);
    wp.na.enable_shm_inline = false;
    const double off = one_way_us(wp, s, n);
    t.add_row({fmt_bytes(s), Table::fmt(on, 3), Table::fmt(off, 3),
               Table::fmt(off / on, 2)});
  }
  narma::bench::print(t);
  note("sizes above 32 B always use copy + notification (identical rows)");
  return 0;
}
