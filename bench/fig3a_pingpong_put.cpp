// Figure 3a — put ping-pong latency vs message size (inter-node).
//
// Series: Message Passing, MPI One Sided (general active target; fence is
// identical on two processes), Notified Access, and the unsynchronized
// busy-wait lower bound. Paper result: Notified Access needs less than 50%
// of the One Sided time on small transfers and beats eager message passing
// (which pays the staging copies).
#include "bench_util.hpp"

using namespace narma;
using namespace narma::bench;
using Scheme = narma::apps::PingPongScheme;

int main() {
  header("Figure 3a", "put ping-pong latency, inter-node (half RTT, us)");
  const int n = reps(25);
  note("median of " + std::to_string(n) + " reps; transports: uGNI-like "
       "FMA/BTE (crossover 4 KiB)");

  Table t({"size", "MsgPassing", "OneSided", "NotifiedAccess",
           "Unsynchronized", "NA/MP", "NA/OS"});
  for (std::size_t s : fig3_sizes()) {
    WorldParams wp;  // defaults: one rank per node
    const double mp =
        pingpong_half_rtt_us(wp, s, Scheme::kMessagePassing, n);
    const double os = pingpong_half_rtt_us(wp, s, Scheme::kOneSidedPscw, n);
    const double na = pingpong_half_rtt_us(wp, s, Scheme::kNotifiedPut, n);
    const double lb =
        pingpong_half_rtt_us(wp, s, Scheme::kUnsynchronized, n);
    t.add_row({fmt_bytes(s), Table::fmt(mp), Table::fmt(os), Table::fmt(na),
               Table::fmt(lb), Table::fmt(na / mp, 2), Table::fmt(na / os, 2)});
  }
  narma::bench::print(t);
  return 0;
}
