// Wire-level types shared by the NIC, the fabric, and the protocol layers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "net/params.hpp"

namespace narma::net {

/// Registered-memory handle, scoped to the owning rank.
using MemKey = std::uint32_t;
constexpr MemKey kInvalidMemKey = 0xffffffffu;

/// 32-bit immediate attached to an RDMA operation. Following the paper's
/// uGNI encoding ("we encode the source rank and tag into the first and last
/// two bytes"), the high half carries the source rank and the low half the
/// tag. This is also why the number of significant tag bits is limited — the
/// strawman interface inherits the hardware constraint.
constexpr int kTagBits = 16;
constexpr std::uint32_t kMaxTag = (1u << kTagBits) - 1;

constexpr std::uint32_t encode_imm(int source_rank, std::uint32_t tag) {
  return (static_cast<std::uint32_t>(source_rank) << kTagBits) |
         (tag & kMaxTag);
}
constexpr int imm_source(std::uint32_t imm) {
  return static_cast<int>(imm >> kTagBits);
}
constexpr std::uint32_t imm_tag(std::uint32_t imm) { return imm & kMaxTag; }

enum class CqeKind : std::uint8_t {
  kPutNotify,     // a notified write committed to local memory
  kGetNotify,     // a notified read of local memory completed
  kAtomicNotify,  // a notified atomic committed to local memory
};

/// Destination-completion-queue entry: the uGNI destination-CQ CQE through
/// which every inter-node notification arrives.
struct Cqe {
  CqeKind kind;
  std::uint32_t imm;    // encoded <source, tag>
  std::uint32_t bytes;  // payload size of the triggering access
  std::uint64_t window; // protocol-layer cookie (window id)
  Time time;            // virtual delivery time
  std::uint64_t msg = 0;  // obs::MsgId of the originating op (0 = untraced)
};

/// Shared-memory notification ring entry (the XPMEM-like path, paper
/// Sec. IV-C): exactly one cache line carrying source, tag, destination
/// offset and — for small puts — the payload itself ("inline transfer").
struct ShmNotification {
  std::uint32_t imm;
  std::uint64_t window;
  MemKey key;
  std::uint64_t offset;     // destination offset within the region
  std::uint32_t bytes;      // total payload size of the access
  std::uint8_t inline_len;  // bytes carried inline (0 = data already placed)
  std::array<std::byte, 32> inline_data;
  Time time;
  std::uint64_t msg = 0;  // obs::MsgId of the originating op (0 = untraced)
};

/// Largest payload folded into a shared-memory notification entry
/// ("inline transfer", paper Sec. IV-C).
constexpr std::size_t kShmInlineCapacity =
    sizeof(ShmNotification::inline_data);

/// Copies `n <= kShmInlineCapacity` bytes between non-overlapping buffers
/// with constant-size moves: two overlapping 16-, 8- or 4-byte copies cover
/// every length from 4 to 32, three byte moves (first, middle, last) the
/// lengths 1 to 3. A memcpy of a run-time length costs a library call or a
/// `rep movsq` whose startup outweighs a copy this small, and a byte loop
/// is turned back into that call; the inline payload pays it once per
/// notification.
inline void copy_inline(std::byte* dst, const std::byte* src, std::size_t n) {
  NARMA_ASSERT(n <= kShmInlineCapacity);
  if (n >= 16) {
    std::memcpy(dst, src, 16);
    std::memcpy(dst + n - 16, src + n - 16, 16);
  } else if (n >= 8) {
    std::memcpy(dst, src, 8);
    std::memcpy(dst + n - 8, src + n - 8, 8);
  } else if (n >= 4) {
    std::memcpy(dst, src, 4);
    std::memcpy(dst + n - 4, src + n - 4, 4);
  } else if (n > 0) {
    dst[0] = src[0];
    dst[n / 2] = src[n / 2];
    dst[n - 1] = src[n - 1];
  }
}

/// One hardware notification after merging the two delivery queues (the
/// uGNI-like destination CQ and the XPMEM-like shm ring) by arrival time.
/// This is the unit Nic::pop_hw_batch hands to the matching engine; the
/// protocol layer charges polling costs, the NIC only moves data.
struct HwNotification {
  std::uint32_t imm = 0;     // encoded <source, tag>
  std::uint64_t window = 0;  // protocol-layer cookie (window id)
  std::uint32_t bytes = 0;   // payload size of the triggering access
  Time time = 0;             // virtual delivery time
  bool from_shm = false;     // arrived through the XPMEM notification ring
  // Shared-memory inline payload, committed by the consumer at match time.
  MemKey key = kInvalidMemKey;
  std::uint64_t offset = 0;
  std::uint8_t inline_len = 0;
  std::array<std::byte, kShmInlineCapacity> inline_data{};
  /// Slot of the hardware queue (the CQ, or the shm ring if from_shm) this
  /// entry was popped from; lets the cache model charge the queue's lines
  /// without the NIC knowing about the cache simulator.
  std::uint32_t queue_slot = 0;
  std::uint64_t msg = 0;  // obs::MsgId of the originating op (0 = untraced)
};

/// Small typed control message (mailbox entry). The protocol layers define
/// the `kind` space; h0..h3 carry protocol headers; `payload` carries eager
/// message data.
struct NetMsg {
  int src = -1;
  std::uint32_t kind = 0;
  std::uint64_t h0 = 0, h1 = 0, h2 = 0, h3 = 0;
  std::vector<std::byte> payload;
  Time time = 0;
  std::uint64_t msg = 0;  // obs::MsgId of the originating op (0 = untraced)
};

/// Completion tracking for nonblocking one-sided operations. The issuing
/// layer owns one counter per (window, target) and flush simply waits until
/// issued == completed.
struct PendingOps {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  bool all_done() const { return issued == completed; }
};

/// Notification attributes for one-sided operations. When `notify` is set,
/// completion posts a CQE to the *target's* destination CQ; for
/// puts/atomics when the data is committed at the target, for gets when the
/// data has been read (the reliable-network case of paper Sec. VIII).
struct NotifyAttr {
  bool notify = false;
  std::uint32_t imm = 0;       // encoded <source, tag>
  std::uint64_t window = 0;    // protocol-layer cookie (window id)
  /// Optional *target-side* delivery tracking: completed is incremented
  /// (and the target's progress trigger notified) when the data commits
  /// at the target. Models receiver-NIC completions; the two-sided
  /// rendezvous protocol uses it.
  PendingOps* remote_delivered = nullptr;
  /// obs::MsgId of the originating operation (0 = untraced). Simulator
  /// metadata only: rides along so the channel stages and delivery can
  /// record lifecycle hops; never affects timing.
  std::uint64_t msg = 0;
};

/// Wire traffic statistics; tests use these to verify the paper's Figure 2
/// transaction counts, and benchmarks report them as sanity checks.
struct FabricCounters {
  std::uint64_t data_transfers = 0;  // puts / gets payload movements
  std::uint64_t ctrl_transfers = 0;  // mailbox messages (headers, eager)
  std::uint64_t responses = 0;       // get/atomic responses
  std::uint64_t acks = 0;            // delivery acks for local completion
  std::uint64_t notifications = 0;   // CQEs + shm-ring entries delivered
  std::uint64_t bytes_on_wire = 0;
  // Fault-injection / flow-control accounting (DESIGN.md §10). All zero in
  // a fault-free fatal-policy run.
  std::uint64_t retries = 0;        // deferred deliveries + retransmits
  std::uint64_t drops = 0;          // injected transfer drops (retransmitted)
  std::uint64_t credit_stalls = 0;  // sender waits for delivery-queue credit
  std::uint64_t nic_stalls = 0;     // injected transient NIC stalls
  std::uint64_t dead_drops = 0;     // deliveries swallowed by a failed rank
};

}  // namespace narma::net
