// Two-rank ping-pong (paper Sec. V-A, Fig. 3): the latency kernel of the
// put, get and shared-memory ping-pong figures and of `narma_cli pingpong`.
//
// Each scheme mirrors the code the paper shows: Listing 1 for Notified
// Access, the Sec. V snippets for message passing, general active target
// (PSCW) and the illegal-but-instructive unsynchronized busy-wait lower
// bound. The client (rank 0) measures full round-trip times on its virtual
// clock; the reported latency is RTT/2 (median over repetitions), as in the
// paper.
#pragma once

#include <cstddef>

#include "core/world.hpp"

namespace narma::apps {

enum class PingPongScheme {
  kMessagePassing,
  kOneSidedPscw,  // general active target; fence performs identically on
                  // two processes (paper Sec. V-A), so one curve is shown
  kNotifiedPut,
  kOneSidedGetPscw,
  kNotifiedGet,
  kUnsynchronized,  // busy-wait lower bound; not a legal program
};

struct PingPongConfig {
  std::size_t bytes = 8;
  PingPongScheme scheme = PingPongScheme::kNotifiedPut;
  int reps = 25;  // timed round trips, after three untimed ones
};

struct PingPongResult {
  double half_rtt_us = 0;  // median half round trip (valid on rank 0)
};

/// Collective over a 2-rank world: both ranks call it.
PingPongResult run_pingpong(Rank& self, const PingPongConfig& cfg);

}  // namespace narma::apps
