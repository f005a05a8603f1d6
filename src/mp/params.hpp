// Tunables of the two-sided (message passing) baseline.
//
// The software overheads model a tuned vendor MPI on the same NIC: eager
// sends pay a sender-side staging copy and the receiver pays matching plus a
// copy out of the eager buffer ("the expensive eager message copy pollutes
// the cache", paper Sec. IV); rendezvous trades the copies for an RTS/CTS
// round trip. These costs — not the wire time — are what Notified Access
// eliminates, so they are explicit parameters rather than buried constants.
#pragma once

#include <cstddef>

#include "common/time.hpp"

namespace narma::mp {

/// Wildcards (match the MPI constants in spirit).
constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

/// Tags at or above this value are reserved for collectives and internal
/// protocols.
constexpr int kMaxUserTag = 0xC000;
/// Every tag, user or reserved, lies below this value.
constexpr int kTagLimit = kMaxUserTag + 0x4000;

struct MpParams {
  /// Messages strictly larger than this use the rendezvous protocol.
  std::size_t eager_threshold = 8192;

  // Calibrated against a tuned vendor MPI on Aries (paper Fig. 3a: ~2 us
  // small-message half RTT vs ~1.4 us for Notified Access).
  Time o_send = ns(400);       // software send-path overhead
  Time o_recv_post = ns(100);  // posting a receive
  Time o_match = ns(400);      // matching an incoming message to a receive
  Time o_rts = ns(150);        // processing an RTS/CTS control message

  /// Eager staging-copy cost per byte, charged at both sender (copy into
  /// NIC buffers) and receiver (copy out of the eager buffer).
  double copy_ps_per_byte = 60.0;

  /// Per-element reduction cost for collectives (doubles).
  Time reduce_op_per_elem = ns(1);

  /// Asynchronous software progression for the rendezvous protocol (paper
  /// reference [8], "to thread or not to thread"): when set, incoming CTS
  /// messages are processed at delivery time by a progression agent — the
  /// payload put starts without waiting for the sender to enter an MPI
  /// call, at the cost of CPU time stolen from the sender (Cray MPI's
  /// tradeoff, visible in the paper's Fig. 4a overlap results).
  bool async_progression = false;
};

struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

}  // namespace narma::mp
