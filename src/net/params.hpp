// Fabric timing and sizing parameters.
//
// Timing is organized per transport *backend* (see net/backend.hpp): each
// backend owns a block of LogGP lane tables plus its notification-model
// knobs, and FabricParams aggregates one block per supported backend plus
// the backend routing policy. The Aries block mirrors the paper's Table I:
//
//            |  Shared memory |  uGNI FMA   |  uGNI BTE
//   L        |  0.25 us       |  1.02 us    |  1.32 us
//   G        |  0.08 ns/B     |  0.105 ns/B |  0.101 ns/B
//
// FMA (Fast Memory Access) serves small transfers; BTE (Block Transfer
// Engine) serves large ones and is selected above `fma_bte_threshold`, as on
// Cray XC30. Intra-node pairs always use the shared-memory (XPMEM-like)
// backend; inter-node pairs use the backend named by `inter_node` or, for
// heterogeneous jobs, the per-node-pair `route` policy.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/time.hpp"

namespace narma::net {

/// Physical injection lane. Each lane belongs to exactly one backend (shm →
/// shared memory; fma/bte → Aries; idc/dma → RAMC; rdma → verbs) and has its
/// own LogGP row; a backend picks among its lanes by payload size.
enum class Transport : std::uint8_t {
  kShm = 0,   // intra-node shared memory (XPMEM-like)
  kFma = 1,   // Aries Fast Memory Access (small transfers)
  kBte = 2,   // Aries Block Transfer Engine (large transfers)
  kIdc = 3,   // RAMC immediate-data channel (small ring-buffer writes)
  kDma = 4,   // RAMC bulk DMA leg (large transfers)
  kRdma = 5,  // verbs/libfabric RDMA write path (single lane)
};
inline constexpr int kNumTransports = 6;

inline const char* to_string(Transport t) {
  switch (t) {
    case Transport::kShm: return "shm";
    case Transport::kFma: return "fma";
    case Transport::kBte: return "bte";
    case Transport::kIdc: return "idc";
    case Transport::kDma: return "dma";
    case Transport::kRdma: return "rdma";
  }
  return "?";
}

/// Transport backend families (net/backend.hpp). kShm serves intra-node
/// pairs; the other three are the selectable inter-node fabrics.
enum class BackendKind : std::uint8_t {
  kShm = 0,
  kAries = 1,
  kRamc = 2,
  kVerbs = 3,
};
inline constexpr int kNumBackends = 4;

inline const char* to_string(BackendKind k) {
  switch (k) {
    case BackendKind::kShm: return "shm";
    case BackendKind::kAries: return "aries";
    case BackendKind::kRamc: return "ramc";
    case BackendKind::kVerbs: return "verbs";
  }
  return "?";
}

/// How a backend surfaces a notified access at the target (backend.hpp has
/// the full semantics table).
enum class NotifyModel : std::uint8_t {
  kShmRing = 0,   // cache-line entries in a shared-memory notification ring
  kDestCqe = 1,   // per-message CQE on the destination CQ (uGNI immediates)
  kCounting = 2,  // counting completion: data leg + ring-entry descriptor leg
  kWriteImm = 3,  // RDMA write-with-immediate CQE, consumer reposts RQEs
};

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
  /// for stall_time before the injection starts.
  double stall_rate = 0.0;
  Time stall_time = us(10);
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
  /// operation's initial failure, on every bounded-retry path — queue
  /// redeliveries, credit stalls, and drop retransmits all count attempts
  /// the same way. The budget exhausts fatally (with full diagnostics) when
  /// the final retry also fails: backpressure degrades gracefully but never
  /// hangs silently, and a drop plan that outlives the budget is reported,
  /// not silently forgiven.
  int max_retries = 1000;
  Time backoff_base = us(1);
  Time backoff_max = ms(1);

  bool any_faults() const {
    return drop_rate > 0 || delay_rate > 0 || stall_rate > 0 ||
           pressure_rate > 0;
  }

  /// Exponential backoff: base << attempt, capped at backoff_max.
  Time backoff(int attempt) const {
    const int sh = std::min(attempt, 20);
    return std::min(backoff_base << sh, backoff_max);
  }
};

/// Shared-memory (XPMEM-like) backend: one lane, coherent completion (no
/// hardware ack), notifications through the shm ring.
struct ShmBackendParams {
  TransportTiming timing{us(0.25), 80.0, ns(5), ps(0)};
};

/// Aries/uGNI backend (the paper's Table I machine): FMA below the
/// threshold, BTE at or above it, per-message CQEs on the destination CQ.
struct AriesParams {
  TransportTiming fma{us(1.02), 105.0, ns(20), us(1.02)};
  TransportTiming bte{us(1.32), 101.0, ns(50), us(1.32)};

  /// Transfers of at least this many bytes use BTE instead of FMA.
  std::size_t fma_bte_threshold = 4096;
};

/// RAMC-style remote-memory-channel backend (Slingshot flavor): small
/// payloads ride the immediate-data channel, bulk ones the DMA leg, and a
/// notified access is a data leg plus a ring-entry descriptor write whose
/// counting completion makes the notification visible.
struct RamcParams {
  TransportTiming idc{us(1.10), 98.0, ns(15), us(1.10)};
  TransportTiming dma{us(1.45), 92.0, ns(45), us(1.45)};

  /// Transfers up to this many bytes use the IDC lane; larger ones use DMA.
  std::size_t idc_max_bytes = 2048;
  /// Wire size of the ring-entry descriptor leg of a notified access.
  std::size_t desc_bytes = 64;
  /// Target-NIC counting-counter update charged before the notification is
  /// visible to the consumer.
  Time counter_update = ns(18);
  /// Consumer-side ring-slot pop/advance cost per notification drained.
  Time ring_pop = ns(9);
};

/// Verbs/libfabric-flavored backend: one RDMA lane, write-with-immediate
/// CQEs, and a receive-queue-entry repost charged to the consumer per
/// notification (the RQE the immediate consumed must be replenished).
struct VerbsParams {
  TransportTiming rdma{us(1.70), 110.0, ns(35), us(1.70)};

  /// Consumer-side RQE repost cost per notification drained.
  Time rq_repost = ns(28);
};

struct FabricParams {
  ShmBackendParams shm;
  AriesParams aries;
  RamcParams ramc;
  VerbsParams verbs;

  /// Backend used by every inter-node pair unless `route` overrides it.
  /// narma_cli selects it with --transport=aries|ramc|verbs.
  BackendKind inter_node = BackendKind::kAries;

  /// Optional heterogeneous routing policy: called once per ordered node
  /// pair (a != b) at fabric construction; returning kShm is invalid.
  /// Unset → every inter-node pair uses `inter_node`.
  std::function<BackendKind(int node_a, int node_b)> route;

  /// Ranks r and s share a node (and use the shm backend) iff
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

  /// LogGP row of one lane, independent of routing (parameter-level lookup;
  /// the fabric resolves lanes through its instantiated backends instead).
  const TransportTiming& timing(Transport t) const {
    switch (t) {
      case Transport::kShm: return shm.timing;
      case Transport::kFma: return aries.fma;
      case Transport::kBte: return aries.bte;
      case Transport::kIdc: return ramc.idc;
      case Transport::kDma: return ramc.dma;
      case Transport::kRdma: return verbs.rdma;
    }
    return aries.fma;
  }
};

}  // namespace narma::net
