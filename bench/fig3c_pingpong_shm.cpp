// Figure 3c — intra-node (shared memory) ping-pong latency vs size.
//
// Both ranks share a node, so Notified Access uses the XPMEM-like
// notification ring with inline transfer for small payloads. Paper result:
// NA performs similarly to message passing here — the round-trip latency is
// negligible in shared memory and the notification overhead dominates.
#include "bench_util.hpp"

using namespace narma;
using namespace narma::bench;
using Scheme = narma::apps::PingPongScheme;

int main() {
  header("Figure 3c", "put ping-pong latency, intra-node shm (half RTT, us)");
  const int n = reps(25);
  note("median of " + std::to_string(n) +
       " reps; inline transfer for payloads <= 32 B");

  Table t({"size", "MsgPassing", "OneSided", "NotifiedAccess",
           "Unsynchronized"});
  for (std::size_t s : fig3_sizes()) {
    WorldParams wp = WorldParams::single_node(2);
    const double mp =
        pingpong_half_rtt_us(wp, s, Scheme::kMessagePassing, n);
    const double os = pingpong_half_rtt_us(wp, s, Scheme::kOneSidedPscw, n);
    const double na = pingpong_half_rtt_us(wp, s, Scheme::kNotifiedPut, n);
    const double lb =
        pingpong_half_rtt_us(wp, s, Scheme::kUnsynchronized, n);
    t.add_row({fmt_bytes(s), Table::fmt(mp), Table::fmt(os), Table::fmt(na),
               Table::fmt(lb)});
  }
  narma::bench::print(t);
  return 0;
}
