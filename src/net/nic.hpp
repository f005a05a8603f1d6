// Per-rank simulated network interface.
//
// Models the slice of Cray uGNI the paper's implementation consumes:
//
//  * registered memory regions addressable by <MemKey, offset> from remote
//    ranks (like uGNI memory handles);
//  * RDMA put/get and 8-byte remote atomics, all nonblocking with
//    completion tracked through caller-owned PendingOps counters (flush
//    waits for issued == completed, like DMAPP gsync);
//  * an optional 32-bit immediate per operation that is posted to the
//    *destination* completion queue on completion — the primitive Notified
//    Access is built on (uGNI destination CQs / RDMA-write-with-immediate);
//  * a control-message mailbox used by the two-sided and synchronization
//    protocol layers (models mailbox/SMSG messaging);
//  * a shared-memory notification ring (the XPMEM path of paper Sec. IV-C)
//    whose cache-line-sized entries can carry small payloads inline.
//
// The NIC charges only "hardware" costs (LogGP L, G, g and ack latency);
// software overheads (matching, copies, call overheads) are charged by the
// protocol layers so that each scheme pays exactly the costs the paper
// attributes to it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <deque>
#include <limits>
#include <span>

#include "common/ring_buffer.hpp"
#include "net/fabric.hpp"
#include "net/params.hpp"
#include "net/types.hpp"
#include "sim/engine.hpp"

namespace narma::net {

class Nic {
 public:
  Nic(Fabric& fabric, sim::RankCtx& ctx);
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  int rank() const { return ctx_.id(); }
  sim::RankCtx& ctx() { return ctx_; }
  Fabric& fabric() { return fabric_; }
  sim::Trigger& progress() { return progress_; }

  // --- Registered memory -------------------------------------------------

  MemKey register_memory(void* base, std::size_t bytes);
  void deregister_memory(MemKey key);

  /// Resolves a remote-addressable location, bounds-checked.
  std::byte* resolve(MemKey key, std::uint64_t offset, std::size_t bytes);

  // --- RDMA data movement -------------------------------------------------

  /// Nonblocking RDMA write of the caller's buffer into (target, key,
  /// offset). The source buffer must remain valid and unmodified until the
  /// operation completes locally (standard RDMA semantics).
  void put(int target, MemKey key, std::uint64_t offset, const void* src,
           std::size_t bytes, NotifyAttr na, PendingOps* pending);

  /// put() with an explicit issue time — used by event-context protocol
  /// handlers (asynchronous software progression), where the owning rank's
  /// clock is not the right injection timestamp.
  void put_at(Time issue, int target, MemKey key, std::uint64_t offset,
              const void* src, std::size_t bytes, NotifyAttr na,
              PendingOps* pending);

  /// One segment of a gathered (noncontiguous) RDMA write.
  struct IoSegment {
    std::uint64_t offset;  // destination offset within the region
    const void* src;
    std::size_t bytes;
  };

  /// Noncontiguous RDMA write: all segments move in one network operation
  /// (one per-message gap, per-byte cost on the total, one completion, one
  /// optional notification covering the whole access) — the transfer shape
  /// of an MPI derived datatype handled by the NIC's DMA engine.
  void put_iov(int target, MemKey key, std::span<const IoSegment> segments,
               NotifyAttr na, PendingOps* pending);

  /// Nonblocking RDMA read of (target, key, offset) into the caller's
  /// buffer. The destination buffer must not be read until completion.
  void get(int target, MemKey key, std::uint64_t offset, void* dst,
           std::size_t bytes, NotifyAttr na, PendingOps* pending);

  enum class AtomicOp : std::uint8_t {
    kAddI64,   // fetch-and-add, 64-bit integer
    kAddF64,   // fetch-and-add, double
    kSwapI64,  // unconditional swap
    kCasI64,   // compare-and-swap (compare field used)
  };

  /// Nonblocking 8-byte remote atomic. The previous value at the target is
  /// written to *result (if non-null) when the response arrives.
  void atomic(int target, MemKey key, std::uint64_t offset, AtomicOp op,
              std::int64_t operand, std::int64_t compare, std::int64_t* result,
              NotifyAttr na, PendingOps* pending);

  // --- Control messages (mailbox) -----------------------------------------

  /// Sends a small typed control message (modeled as ctrl_msg_bytes on the
  /// wire, plus the payload if any). Delivered to the target's mailbox.
  void send_msg(int target, NetMsg msg);

  // --- Shared-memory notification ring (XPMEM path) -----------------------

  /// Enqueues a cache-line-sized notification at an intra-node target.
  /// Callers place small payloads in n.inline_data before the call; for
  /// large accesses they put() the data first (same channel → FIFO ensures
  /// the data is committed before the notification is visible).
  void send_shm_notification(int target, ShmNotification n,
                             PendingOps* pending);

  // --- Queues consumed by protocol layers ----------------------------------

  RingBuffer<Cqe>& dest_cq() { return dest_cq_; }
  RingBuffer<ShmNotification>& shm_ring() { return shm_ring_; }
  RingBuffer<NetMsg>& mailbox() { return mailbox_; }

  /// Pops the oldest mailbox entry, which must be due (stamped at or before
  /// the rank's clock), and returns its flow-control credit to
  /// the senders (a no-op under the fatal overflow policy). The router's
  /// progress loop uses this instead of mailbox().pop() so backpressured
  /// senders wake as the consumer drains.
  NetMsg pop_mailbox();

  /// Re-samples the queue-depth gauges at the rank's clock. Consumers that
  /// pop from the queues directly (the mailbox router) call this after
  /// draining so the high-water marks and counter tracks stay faithful.
  void sample_queue_gauges();

  /// Drains up to out.size() hardware notifications, merging the destination
  /// CQ and the shm ring by arrival time (ties: CQ first) so consumers see
  /// global arrival order. Returns the number of entries written. Pure data
  /// movement: polling overheads are charged by the protocol layer, which
  /// can amortize them over the whole batch (one test() drains many CQEs).
  /// Only entries whose arrival time is <= the rank's clock are visible:
  /// delivery events execute whenever *any* rank drains past them, so the
  /// queues can hold entries stamped in this rank's future, and surfacing
  /// those early would let a lagging consumer observe a notification before
  /// it physically arrived.
  std::size_t pop_hw_batch(std::span<HwNotification> out);

  /// Sentinel returned by next_pending_time() when no inbound queue holds an
  /// entry in the rank's future.
  static constexpr Time kNoPending = std::numeric_limits<Time>::max();

  /// Earliest arrival time strictly after the rank's clock across the
  /// inbound queues (destination CQ, shm ring, mailbox), or kNoPending when
  /// there is none. Such an entry's delivery event has already executed —
  /// its trigger notify fired — so a waiter must bound its sleep with
  /// RankCtx::wait_deadline instead of blocking on the trigger alone.
  /// Already-due entries are skipped: they wake nobody, and a waiter that
  /// could consume them would have done so before blocking (they may belong
  /// to a different protocol layer than the one waiting). Kept
  /// incrementally, scanning the queues only when an arrival queued since
  /// the last scan has fallen due: see scanned_.
  Time next_pending_time() {
    const Time now = ctx_.now();
    if (queued_min_ <= now) rescan_pending(now);
    while (scan_head_ < scanned_.size() && scanned_[scan_head_] <= now)
      ++scan_head_;
    return scan_head_ < scanned_.size()
               ? std::min(scanned_[scan_head_], queued_min_)
               : queued_min_;
  }

  /// Installs a delivery hook invoked (in event context) for every incoming
  /// control message; returning true consumes the message instead of
  /// enqueueing it. Models an asynchronous software progression agent.
  void set_delivery_hook(std::function<bool(NetMsg&&)> hook) {
    delivery_hook_ = std::move(hook);
  }

  // --- Waiting --------------------------------------------------------------

  /// Blocks this rank until pred() holds, processing simulation events in
  /// between. The predicate is evaluated with all events <= the rank's
  /// clock applied.
  template <class Pred>
  void wait_until(Pred pred, const char* label) {
    ctx_.drain();
    while (!pred()) {
      const Time due = next_pending_time();
      if (due != kNoPending)
        ctx_.wait_deadline(progress_, due, label);
      else
        ctx_.wait(progress_, label);
    }
  }

  /// Waits for all operations tracked by `po` to complete.
  void flush(PendingOps& po, const char* label = "nic-flush") {
    wait_until([&po] { return po.all_done(); }, label);
  }

 private:
  friend class Fabric;

  void push_cqe(const Cqe& cqe);
  void push_shm(const ShmNotification& n);
  void push_msg(NetMsg msg);

  /// True (and the delivery is swallowed) when this rank is marked failed:
  /// the entry is counted as a dead drop and its queue-slot credit returned
  /// to the senders instead of aborting on an unconsumed queue.
  bool drop_if_dead(FlowControl::Queue q, Time t);
  void post_ack(int origin, Time deliver_time, Transport transport,
                PendingOps* pending);

  /// A put's transfer and landing; `copy(target NIC)` commits the payload.
  template <class F>
  void put_leg(Time issue, int target, std::size_t bytes, NotifyAttr na,
               PendingOps* pending, F&& copy);

  /// A get's or atomic's response leg; `land()` commits the result here.
  template <class F>
  void respond(int target, Time t, std::size_t bytes, Transport tr,
               const NotifyAttr& na, PendingOps* pending, F&& land);

  // --- Flow control & graceful delivery (OverflowPolicy::kBackpressure) ----

  /// Rank-context credit acquisition for one delivery-queue slot at
  /// `target`. Blocks with bounded exponential backoff (counted as
  /// net.credit_stalls) when the destination has no free slot; records a
  /// kRetry hop for sampled messages that had to wait. A no-op under the
  /// fatal policy. Must never be called from event context.
  void acquire_credit(int target, FlowControl::Queue q, std::uint64_t msg);

  /// Deferred deliveries parked while their queue reported full (injected
  /// pressure). Arrival order is preserved: fresh deliveries queue behind
  /// the spill so per-source FIFO — which the NA matching order relies on —
  /// survives the redelivery. Every parked entry holds a credited slot, so
  /// one redelivery lands them all.
  template <class T>
  struct Spill {
    std::deque<T> entries;
    bool scheduled = false;  // a drain event is pending
  };

  /// Delivery with a deferred retry instead of abort: push now if the queue
  /// accepts and nothing is parked ahead, otherwise spill and schedule the
  /// redelivery.
  template <class T>
  void graceful_deliver(T entry, RingBuffer<T>& q, Spill<T>& sp,
                        const char* what);
  template <class T>
  void drain_spill(RingBuffer<T>& q, Spill<T>& sp, const char* what, Time t);

  /// Post-push bookkeeping shared by the direct and redelivery paths:
  /// counters, the kDeliver hop, depth gauge, progress notification.
  void commit(const Cqe& cqe);
  void commit(const ShmNotification& n);
  void commit(const NetMsg& msg);

  /// Records the arrival time of an entry that just entered a queue.
  void note_queued(Time t) { queued_min_ = std::min(queued_min_, t); }
  /// Sorts the times of the queued entries stamped after `now` into
  /// scanned_ and forgets the arrivals queued since the last scan.
  void rescan_pending(Time now);

  struct MemRegion {
    std::byte* base = nullptr;
    std::size_t bytes = 0;
    bool valid = false;
  };

  Fabric& fabric_;
  sim::RankCtx& ctx_;
  sim::Trigger progress_;
  std::vector<MemRegion> regions_;
  RingBuffer<Cqe> dest_cq_;
  RingBuffer<ShmNotification> shm_ring_;
  RingBuffer<NetMsg> mailbox_;
  Spill<Cqe> spill_cq_;
  Spill<ShmNotification> spill_shm_;
  Spill<NetMsg> spill_mail_;
  // next_pending_time() without a scan per wake. scanned_ holds, sorted,
  // the future-stamped arrival times the last scan found, live from
  // scan_head_; queued_min_ is the earliest arrival queued since. An entry
  // leaves its queue only once due (pop_hw_batch and the router take
  // entries stamped <= the clock) and the clock never falls, so while
  // queued_min_ is in the rank's future every arrival queued since the
  // scan is still queued and future, and the live part of scanned_ is
  // exactly the rest: the answer is the smaller head. Once queued_min_
  // falls due, the other arrivals queued since are unknown, and the next
  // call scans the queues again. A backlog of future entries is sorted
  // once, not scanned at every bounded wake. (A caller popping a future
  // entry through the raw queue accessors leaves its time behind: one
  // spurious deadline wake, never a late one.)
  std::vector<Time> scanned_;
  std::size_t scan_head_ = 0;
  Time queued_min_ = kNoPending;
  std::function<bool(NetMsg&&)> delivery_hook_;
  // Queue-depth gauges (destination side) and the source-side outstanding-
  // operation gauge; disengaged no-op handles when metrics are off.
  obs::Gauge g_dest_cq_depth_;
  obs::Gauge g_shm_ring_depth_;
  obs::Gauge g_mailbox_depth_;
  obs::Gauge g_src_pending_;
};

}  // namespace narma::net
