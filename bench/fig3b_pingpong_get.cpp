// Figure 3b — get ping-pong latency vs message size (inter-node).
//
// Series: Message Passing (single transfer, an inherent advantage over the
// request/response get), MPI One Sided get under PSCW, and notified get.
#include "bench_util.hpp"

using namespace narma;
using namespace narma::bench;
using Scheme = narma::apps::PingPongScheme;

int main() {
  header("Figure 3b", "get ping-pong latency, inter-node (half RTT, us)");
  const int n = reps(25);
  note("median of " + std::to_string(n) +
       " reps; message passing is a single transfer and thus has a "
       "structural advantage over request/response gets");

  Table t({"size", "MsgPassing", "OneSidedGet", "NotifiedGet", "NG/OSG"});
  for (std::size_t s : fig3_sizes()) {
    WorldParams wp;
    const double mp =
        pingpong_half_rtt_us(wp, s, Scheme::kMessagePassing, n);
    const double osg =
        pingpong_half_rtt_us(wp, s, Scheme::kOneSidedGetPscw, n);
    const double ng = pingpong_half_rtt_us(wp, s, Scheme::kNotifiedGet, n);
    t.add_row({fmt_bytes(s), Table::fmt(mp), Table::fmt(osg), Table::fmt(ng),
               Table::fmt(ng / osg, 2)});
  }
  narma::bench::print(t);
  return 0;
}
