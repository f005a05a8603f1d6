// Fabric timing and sizing parameters. The lane table mirrors the paper's
// Table I:
//
//            |  Shared memory |  uGNI FMA   |  uGNI BTE
//   L        |  0.25 us       |  1.02 us    |  1.32 us
//   G        |  0.08 ns/B     |  0.105 ns/B |  0.101 ns/B
//
// Intra-node pairs use the shared-memory (XPMEM-like) lane. Inter-node pairs
// use FMA (Fast Memory Access) for small transfers and BTE (Block Transfer
// Engine) at or above `fma_bte_threshold`, as on Cray XC30.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/time.hpp"

namespace narma::net {

/// Physical injection lane, each with its own LogGP row.
enum class Transport : std::uint8_t {
  kShm = 0,  // intra-node shared memory (XPMEM-like)
  kFma = 1,  // Aries Fast Memory Access (small transfers)
  kBte = 2,  // Aries Block Transfer Engine (large transfers)
};
inline constexpr int kNumTransports = 3;

inline const char* to_string(Transport t) {
  switch (t) {
    case Transport::kShm: return "shm";
    case Transport::kFma: return "fma";
    case Transport::kBte: return "bte";
  }
  return "?";
}

struct TransportTiming {
  Time L;                 // zero-byte one-way latency
  double G_ps_per_byte;   // per-byte serialization cost (picoseconds/byte)
  Time g;                 // per-message injection gap at the NIC
  Time ack_L;             // latency of the hardware delivery ack back to the
                          // origin (0 for coherent shared memory)
};

/// What a NIC does when a delivery queue (destination CQ, shm notification
/// ring, mailbox) is full.
enum class OverflowPolicy : std::uint8_t {
  /// Abort the run — uGNI semantics, where destination-CQ overflow is an
  /// unrecoverable hardware error. The historical (and default) behavior.
  kFatal = 0,
  /// Sender-side credit backpressure plus bounded retry with exponential
  /// backoff at the delivery site; the run completes, slower.
  kBackpressure = 1,
};

inline const char* to_string(OverflowPolicy p) {
  return p == OverflowPolicy::kFatal ? "fatal" : "backpressure";
}

/// Deterministic fault plan and flow-control policy (DESIGN.md §10). All
/// fault draws are counter-based — a pure hash of (seed, rank, per-rank
/// sequence number) — so a given seed names one reproducible fault schedule
/// regardless of how runs are repeated. With the rates at their zero
/// defaults and the fatal policy, the fault machinery is never consulted and
/// execution is bit-identical to a build without it (enforced by
/// tests/test_failure_injection.cpp).
struct FaultParams {
  std::uint64_t seed = 1;

  /// Probability that a transfer's flight is dropped and retransmitted by
  /// the source NIC (after the would-be delivery time plus backoff).
  double drop_rate = 0.0;
  /// Probability of extra delivery jitter, uniform in (0, delay_max].
  double delay_rate = 0.0;
  Time delay_max = us(2);
  /// Probability of a transient NIC stall: the source channel is held busy
  /// for kStallTime before the injection starts.
  double stall_rate = 0.0;
  static constexpr Time kStallTime = us(10);
  /// Probability that a delivery queue reports "full" on first attempt even
  /// when it is not (forced-overflow pressure; exercises the retry path).
  /// Only meaningful under kBackpressure — the fatal policy ignores it so a
  /// fault-laden fatal-policy run does not die on a synthetic overflow.
  double pressure_rate = 0.0;

  /// Probability that a rank fail-stops at an epoch boundary (drawn per
  /// (rank, epoch) by FaultInjector::fail_draw; consulted only by the ft
  /// layer at RecoveryManager::end_epoch, never by the transfer machinery,
  /// so it does not count toward any_faults() and leaves message timing
  /// bit-identical). At most `max_fails` failures fire per run.
  double fail_rate = 0.0;
  int max_fails = 1;

  OverflowPolicy overflow_policy = OverflowPolicy::kFatal;

  /// Retry budget: the number of *retry* attempts allowed after an
  /// operation's initial failure, on both bounded-retry paths — sender
  /// credit stalls and drop retransmits count attempts the same way. The
  /// budget exhausts fatally (with full diagnostics) when the final retry
  /// also fails: backpressure degrades gracefully but never hangs silently,
  /// and a drop plan that outlives the budget is reported, not silently
  /// forgiven. (A queue entry deferred by forced pressure needs no budget:
  /// it holds a credited slot, so its one redelivery always lands.)
  int max_retries = 1000;
  static constexpr Time kBackoffBase = us(1);
  static constexpr Time kBackoffMax = ms(1);

  bool any_faults() const {
    return drop_rate > 0 || delay_rate > 0 || stall_rate > 0 ||
           pressure_rate > 0;
  }

  /// Exponential backoff: base << attempt, capped at kBackoffMax.
  static Time backoff(int attempt) {
    const int sh = std::min(attempt, 20);
    return std::min(kBackoffBase << sh, kBackoffMax);
  }
};

/// Shared-memory (XPMEM-like) lane: coherent completion (no hardware ack),
/// notifications through the shm ring.
struct ShmParams {
  TransportTiming timing{us(0.25), 80.0, ns(5), ps(0)};
};

/// Aries/uGNI lanes (the paper's Table I machine): FMA below the threshold,
/// BTE at or above it, per-message CQEs on the destination CQ.
struct AriesParams {
  TransportTiming fma{us(1.02), 105.0, ns(20), us(1.02)};
  TransportTiming bte{us(1.32), 101.0, ns(50), us(1.32)};

  /// Transfers of at least this many bytes use BTE instead of FMA.
  std::size_t fma_bte_threshold = 4096;
};

struct FabricParams {
  ShmParams shm;
  AriesParams aries;

  /// Ranks r and s share a node (and use the shm lane) iff
  /// r / ranks_per_node == s / ranks_per_node. Must be >= 1 (validated
  /// fatally at fabric construction).
  int ranks_per_node = 1;

  /// Execution time of an atomic operation at the target NIC.
  Time atomic_exec = ns(25);

  /// Modeled wire size of a control message (headers, mailbox entries).
  std::size_t ctrl_msg_bytes = 64;

  std::size_t dest_cq_capacity = 1 << 16;
  std::size_t mailbox_capacity = 1 << 16;
  std::size_t shm_ring_capacity = 1 << 14;

  /// Fault injection and overflow/flow-control policy (narma_cli:
  /// --overflow, --fault-seed, --fault-{drop,delay,stall,pressure}).
  FaultParams faults;

  /// LogGP row of one lane.
  const TransportTiming& timing(Transport t) const {
    switch (t) {
      case Transport::kShm: return shm.timing;
      case Transport::kFma: return aries.fma;
      case Transport::kBte: return aries.bte;
    }
    return aries.fma;
  }
};

}  // namespace narma::net
