#include "net/nic.hpp"

#include <bit>
#include <type_traits>

#include "obs/journal.hpp"
#include "obs/msgtrace.hpp"

namespace narma::net {

Nic::Nic(Fabric& fabric, sim::RankCtx& ctx)
    : fabric_(fabric),
      ctx_(ctx),
      dest_cq_(fabric.params().dest_cq_capacity),
      shm_ring_(fabric.params().shm_ring_capacity),
      mailbox_(fabric.params().mailbox_capacity) {
  if (obs::Registry* m = fabric_.metrics()) {
    const int r = ctx_.id();
    g_dest_cq_depth_ = m->gauge("net.dest_cq_depth", r);
    g_shm_ring_depth_ = m->gauge("net.shm_ring_depth", r);
    g_mailbox_depth_ = m->gauge("net.mailbox_depth", r);
    g_src_pending_ = m->gauge("net.src_pending", r);
  }
}

void Nic::sample_queue_gauges() {
  const Time now = ctx_.now();
  g_dest_cq_depth_.set(static_cast<std::int64_t>(dest_cq_.size()), now);
  g_shm_ring_depth_.set(static_cast<std::int64_t>(shm_ring_.size()), now);
  g_mailbox_depth_.set(static_cast<std::int64_t>(mailbox_.size()), now);
}

// --- Registered memory -----------------------------------------------------

MemKey Nic::register_memory(void* base, std::size_t bytes) {
  NARMA_CHECK(base != nullptr || bytes == 0);
  // Reuse a deregistered slot if available to keep the table small.
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (!regions_[i].valid) {
      regions_[i] = {static_cast<std::byte*>(base), bytes, true};
      return static_cast<MemKey>(i);
    }
  }
  regions_.push_back({static_cast<std::byte*>(base), bytes, true});
  return static_cast<MemKey>(regions_.size() - 1);
}

void Nic::deregister_memory(MemKey key) {
  NARMA_CHECK(key < regions_.size() && regions_[key].valid)
      << "deregistering invalid memory key " << key;
  regions_[key].valid = false;
}

std::byte* Nic::resolve(MemKey key, std::uint64_t offset, std::size_t bytes) {
  NARMA_CHECK(key < regions_.size() && regions_[key].valid)
      << "remote access to invalid memory key " << key << " at rank "
      << rank();
  MemRegion& r = regions_[key];
  NARMA_CHECK(offset + bytes <= r.bytes)
      << "remote access out of bounds: offset " << offset << " + " << bytes
      << " > region size " << r.bytes << " (rank " << rank() << ", key "
      << key << ")";
  return r.base + offset;
}

// --- Hardware-queue draining -------------------------------------------------

std::size_t Nic::pop_hw_batch(std::span<HwNotification> out) {
  std::size_t n = 0;
  std::size_t cq_popped = 0;
  std::size_t shm_popped = 0;
  const Time now = ctx_.now();
  while (n < out.size()) {
    // Entries stamped in this rank's future stay queued (their delivery
    // events ran early during another rank's drain); see next_pending_time.
    const bool has_cq = !dest_cq_.empty() && dest_cq_.front().time <= now;
    const bool has_ring = !shm_ring_.empty() && shm_ring_.front().time <= now;
    if (!has_cq && !has_ring) break;
    // Merge by arrival time (ties: CQ first) so the consumer observes the
    // same global order a single merged hardware queue would produce.
    const bool take_cq =
        has_cq &&
        (!has_ring || dest_cq_.front().time <= shm_ring_.front().time);
    // Every field is assigned in both branches: value-initializing the
    // whole entry first costs a `rep stosq` per notification.
    HwNotification& o = out[n++];
    if (take_cq) {
      o.queue_slot = static_cast<std::uint32_t>(dest_cq_.front_slot());
      const Cqe c = dest_cq_.pop();
      ++cq_popped;
      o.imm = c.imm;
      o.window = c.window;
      o.bytes = c.bytes;
      o.time = c.time;
      o.msg = c.msg;
      o.from_shm = false;
      o.key = kInvalidMemKey;
      o.offset = 0;
      o.inline_len = 0;
      o.inline_data = {};
    } else {
      o.queue_slot = static_cast<std::uint32_t>(shm_ring_.front_slot());
      const ShmNotification s = shm_ring_.pop();
      ++shm_popped;
      o.imm = s.imm;
      o.window = s.window;
      o.bytes = s.bytes;
      o.time = s.time;
      o.msg = s.msg;
      o.from_shm = true;
      o.key = s.key;
      o.offset = s.offset;
      o.inline_len = s.inline_len;
      if (s.inline_len)
        o.inline_data = s.inline_data;
      else
        o.inline_data = {};
    }
  }
  if (n) {
    const Time now = ctx_.now();
    g_dest_cq_depth_.set(static_cast<std::int64_t>(dest_cq_.size()), now);
    g_shm_ring_depth_.set(static_cast<std::int64_t>(shm_ring_.size()), now);
    FlowControl& fc = fabric_.flow();
    fc.release(rank(), FlowControl::Queue::kDestCq, cq_popped,
               fabric_.engine(), now);
    fc.release(rank(), FlowControl::Queue::kShmRing, shm_popped,
               fabric_.engine(), now);
  }
  return n;
}

NetMsg Nic::pop_mailbox() {
  NetMsg m = mailbox_.pop();
  NARMA_ASSERT(m.time <= ctx_.now()) << "mailbox entry popped before due";
  fabric_.flow().release(rank(), FlowControl::Queue::kMailbox, 1,
                         fabric_.engine(), ctx_.now());
  return m;
}

void Nic::rescan_pending(Time now) {
  scanned_.clear();
  scan_head_ = 0;
  queued_min_ = kNoPending;
  auto scan = [&](const auto& q) {
    for (std::size_t i = 0; i < q.size(); ++i)
      if (q.peek(i).time > now) scanned_.push_back(q.peek(i).time);
  };
  scan(dest_cq_);
  scan(shm_ring_);
  scan(mailbox_);
  std::sort(scanned_.begin(), scanned_.end());
}

// --- Completion delivery ----------------------------------------------------

void Nic::commit(const Cqe& cqe) {
  note_queued(cqe.time);
  ++fabric_.counters().notifications;
  // An intra-node get or atomic notification also lands on the CQ; it
  // counts as shm traffic, by the pair it crossed.
  fabric_.note_notify(rank(),
                      fabric_.same_node(imm_source(cqe.imm), rank()));
  if (cqe.msg)
    if (auto* mt = fabric_.msgtrace())
      mt->hop(cqe.msg, rank(), obs::HopKind::kDeliver, cqe.time);
  g_dest_cq_depth_.set(static_cast<std::int64_t>(dest_cq_.size()), cqe.time);
  progress_.notify(fabric_.engine(), cqe.time);
}

void Nic::commit(const ShmNotification& n) {
  note_queued(n.time);
  ++fabric_.counters().notifications;
  fabric_.note_notify(rank(), true);
  if (n.msg)
    if (auto* mt = fabric_.msgtrace())
      mt->hop(n.msg, rank(), obs::HopKind::kDeliver, n.time);
  g_shm_ring_depth_.set(static_cast<std::int64_t>(shm_ring_.size()), n.time);
  progress_.notify(fabric_.engine(), n.time);
}

void Nic::commit(const NetMsg& msg) {
  note_queued(msg.time);
  if (msg.msg)
    if (auto* mt = fabric_.msgtrace())
      mt->hop(msg.msg, rank(), obs::HopKind::kDeliver, msg.time);
  g_mailbox_depth_.set(static_cast<std::int64_t>(mailbox_.size()), msg.time);
  progress_.notify(fabric_.engine(), msg.time);
}

template <class T>
void Nic::graceful_deliver(T entry, RingBuffer<T>& q, Spill<T>& sp,
                           const char* what) {
  // Entries parked ahead must land first (per-source FIFO); otherwise try
  // the queue directly, with the fault plan optionally forcing a transient
  // "queue full" observation on first contact.
  const bool behind = !sp.entries.empty();
  const bool forced = !behind && fabric_.faults().enabled() &&
                      fabric_.faults().next_pressure(rank());
  if (!behind && !forced && q.try_push(entry)) {
    commit(entry);
    return;
  }
  ++fabric_.counters().retries;
  if (entry.msg)
    if (auto* mt = fabric_.msgtrace())
      mt->hop(entry.msg, rank(), obs::HopKind::kRetry, entry.time);
  if (auto* j = fabric_.journal()) {
    std::uint64_t qid;
    if constexpr (std::is_same_v<T, Cqe>)
      qid = static_cast<std::uint64_t>(FlowControl::Queue::kDestCq);
    else if constexpr (std::is_same_v<T, ShmNotification>)
      qid = static_cast<std::uint64_t>(FlowControl::Queue::kShmRing);
    else
      qid = static_cast<std::uint64_t>(FlowControl::Queue::kMailbox);
    if (forced)
      j->append(obs::JournalKind::kPressure, entry.time, rank(), -1, qid);
    else
      j->append(obs::JournalKind::kOverflowSpill, entry.time, rank(), -1,
                static_cast<std::uint64_t>(q.size()),
                static_cast<std::uint64_t>(sp.entries.size() + 1));
  }
  const Time t = entry.time + fabric_.params().faults.backoff(0);
  sp.entries.push_back(std::move(entry));
  if (!sp.scheduled) {
    sp.scheduled = true;
    fabric_.engine().post(
        t, [this, &q, &sp, what, t] { drain_spill(q, sp, what, t); });
  }
}

template <class T>
void Nic::drain_spill(RingBuffer<T>& q, Spill<T>& sp, const char* what,
                      Time t) {
  sp.scheduled = false;
  while (!sp.entries.empty()) {
    T& head = sp.entries.front();
    // The entry lands now, not at its first (refused) arrival, so consumers
    // and the msgtrace see the redelivery instant.
    if (head.time < t) head.time = t;
    // Every spilled entry holds the queue-slot credit its sender acquired
    // before issue, and credits return only as entries leave the queue, so
    // queue + spill never outgrow the capacity: the reserved slot is free.
    NARMA_CHECK(q.try_push(head))
        << what << " redelivery found no free slot at rank " << rank()
        << ": depth " << q.size() << " of capacity " << q.capacity()
        << " — an entry reached the queue without a credit";
    commit(head);
    sp.entries.pop_front();
  }
}

void Nic::acquire_credit(int target, FlowControl::Queue q, std::uint64_t msg) {
  FlowControl& fc = fabric_.flow();
  if (!fc.active() || fc.try_acquire(target, q)) return;
  const FaultParams& fp = fabric_.params().faults;
  int attempt = 0;
  for (;;) {
    ++fabric_.counters().credit_stalls;
    NARMA_CHECK(attempt < fp.max_retries)
        << "credit-stall retry budget exhausted after " << fp.max_retries
        << " retries: rank " << rank() << " -> " << target << " ("
        << fc.in_flight(target, q) << " of " << fc.capacity(q)
        << " slots in flight) — the consumer is not draining; raise the "
           "destination queue capacity or FaultParams::max_retries";
    ctx_.wait_deadline(fc.trigger(target, q), ctx_.now() + fp.backoff(attempt),
                       "net-credit-stall");
    ctx_.drain();
    ++attempt;
    if (fc.try_acquire(target, q)) break;
  }
  // One record per stall episode (not per wait), stamped when the credit
  // finally arrives; `b` carries how many backoff waits it took.
  if (auto* j = fabric_.journal())
    j->append(obs::JournalKind::kCreditStall, ctx_.now(), rank(), target,
              static_cast<std::uint64_t>(q),
              static_cast<std::uint64_t>(attempt));
  // The op was delayed by backpressure; fold the stall into its lifecycle.
  if (msg)
    if (auto* mt = fabric_.msgtrace())
      mt->hop(msg, rank(), obs::HopKind::kRetry, ctx_.now());
}

bool Nic::drop_if_dead(FlowControl::Queue q, Time t) {
  if (fabric_.rank_up(rank())) return false;
  // Delivery into a failed rank: the payload evaporates (the rank's memory
  // is gone) instead of aborting the fabric. The sender's hardware ack still
  // fires — the wire delivered, the host died — so source-side flushes
  // complete, and the queue-slot credit the sender reserved is returned
  // (a no-op under the fatal policy) so survivors are never throttled by a
  // corpse. The ft layer replays the lost notifications from peer logs.
  ++fabric_.counters().dead_drops;
  fabric_.flow().release(rank(), q, 1, fabric_.engine(), t);
  return true;
}

void Nic::push_cqe(const Cqe& cqe) {
  if (drop_if_dead(FlowControl::Queue::kDestCq, cqe.time)) return;
  if (fabric_.flow().active()) {
    graceful_deliver(cqe, dest_cq_, spill_cq_, "destination completion queue");
    return;
  }
  NARMA_CHECK(dest_cq_.try_push(cqe))
      << "destination completion queue overflow at rank " << rank()
      << ": depth " << dest_cq_.size() << " of capacity "
      << dest_cq_.capacity()
      << " — raise WorldParams::fabric.dest_cq_capacity, consume "
         "notifications faster, or select the backpressure overflow policy "
         "(FaultParams::overflow_policy, --overflow=backpressure); like "
         "uGNI, CQ overflow under the fatal policy is unrecoverable";
  commit(cqe);
}

void Nic::push_shm(const ShmNotification& n) {
  if (drop_if_dead(FlowControl::Queue::kShmRing, n.time)) return;
  if (fabric_.flow().active()) {
    graceful_deliver(n, shm_ring_, spill_shm_, "shm notification ring");
    return;
  }
  NARMA_CHECK(shm_ring_.try_push(n))
      << "shared-memory notification ring overflow at rank " << rank()
      << ": depth " << shm_ring_.size() << " of capacity "
      << shm_ring_.capacity()
      << " — raise WorldParams::fabric.shm_ring_capacity, consume "
         "notifications faster, or select the backpressure overflow policy "
         "(FaultParams::overflow_policy, --overflow=backpressure)";
  commit(n);
}

void Nic::push_msg(NetMsg msg) {
  if (drop_if_dead(FlowControl::Queue::kMailbox, msg.time)) return;
  if (fabric_.flow().active()) {
    if (delivery_hook_) {
      const std::uint64_t mid = msg.msg;
      const Time t = msg.time;
      if (delivery_hook_(std::move(msg))) {
        // Consumed by the async-progression agent: delivered at this
        // instant, and its mailbox slot reservation is returned unused.
        if (mid)
          if (auto* mt = fabric_.msgtrace())
            mt->hop(mid, rank(), obs::HopKind::kDeliver, t);
        fabric_.flow().release(rank(), FlowControl::Queue::kMailbox, 1,
                               fabric_.engine(), t);
        return;
      }
    }
    graceful_deliver(std::move(msg), mailbox_, spill_mail_, "mailbox");
    return;
  }
  // Recorded before the delivery hook: a hook-consumed message (async
  // progression) is delivered at this instant too.
  if (msg.msg)
    if (auto* mt = fabric_.msgtrace())
      mt->hop(msg.msg, rank(), obs::HopKind::kDeliver, msg.time);
  if (delivery_hook_ && delivery_hook_(std::move(msg))) return;
  const Time t = msg.time;
  NARMA_CHECK(mailbox_.try_push(std::move(msg)))
      << "mailbox overflow at rank " << rank() << ": depth "
      << mailbox_.size() << " of capacity " << mailbox_.capacity()
      << " — raise WorldParams::fabric.mailbox_capacity, progress the "
         "receiver, or select the backpressure overflow policy "
         "(FaultParams::overflow_policy, --overflow=backpressure)";
  note_queued(t);
  g_mailbox_depth_.set(static_cast<std::int64_t>(mailbox_.size()), t);
  progress_.notify(fabric_.engine(), t);
}

void Nic::post_ack(int origin, Time deliver_time, Transport transport,
                   PendingOps* pending) {
  const Time ack = deliver_time + fabric_.timing(transport).ack_L;
  ++fabric_.counters().acks;
  Nic* origin_nic = &fabric_.nic(origin);
  fabric_.engine().post(ack, [origin_nic, pending, ack] {
    if (pending) ++pending->completed;
    origin_nic->g_src_pending_.add(-1, ack);
    origin_nic->progress_.notify(origin_nic->fabric_.engine(), ack);
  });
}

template <class F>
void Nic::put_leg(Time issue, int target, std::size_t bytes, NotifyAttr na,
                  PendingOps* pending, F&& copy) {
  const Transport tr = fabric_.transport_for(rank(), target, bytes);
  Nic* tgt = &fabric_.nic(target);
  if (pending) ++pending->issued;
  ++fabric_.counters().data_transfers;
  g_src_pending_.add(1, issue);
  const Time deliver = fabric_.schedule_transfer(
      rank(), target, issue, bytes, tr, Fabric::ChannelClass::kData,
      [tgt, copy = std::forward<F>(copy), na, bytes](Time t) {
        copy(*tgt);
        if (na.notify) {
          tgt->push_cqe(Cqe{CqeKind::kPutNotify, na.imm,
                            static_cast<std::uint32_t>(bytes), na.window, t,
                            na.msg});
        } else if (na.msg) {
          // Plain put: the lifecycle's delivery hop is the data commit.
          if (auto* mt = tgt->fabric_.msgtrace())
            mt->hop(na.msg, tgt->rank(), obs::HopKind::kDeliver, t);
        }
        if (na.remote_delivered) {
          ++na.remote_delivered->completed;
          tgt->progress_.notify(tgt->fabric_.engine(), t);
        }
      },
      na.msg);
  post_ack(rank(), deliver, tr, pending);
}

template <class F>
void Nic::respond(int target, Time t, std::size_t bytes, Transport tr,
                  const NotifyAttr& na, PendingOps* pending, F&& land) {
  ++fabric_.counters().responses;
  // A notified get or atomic's consumer path ends at the target CQ; a
  // plain one's lifecycle follows the response leg back to the origin.
  const std::uint64_t resp_msg = na.notify ? 0 : na.msg;
  fabric_.schedule_transfer(
      target, rank(), t, bytes, tr, Fabric::ChannelClass::kResp,
      [this, land = std::forward<F>(land), pending, resp_msg](Time t_resp) {
        land();
        if (resp_msg)
          if (auto* mt = fabric_.msgtrace())
            mt->hop(resp_msg, rank(), obs::HopKind::kDeliver, t_resp);
        if (pending) ++pending->completed;
        g_src_pending_.add(-1, t_resp);
        progress_.notify(fabric_.engine(), t_resp);
      },
      resp_msg);
}

// --- RDMA -------------------------------------------------------------------

void Nic::put(int target, MemKey key, std::uint64_t offset, const void* src,
              std::size_t bytes, NotifyAttr na, PendingOps* pending) {
  if (na.notify) acquire_credit(target, FlowControl::Queue::kDestCq, na.msg);
  put_at(ctx_.now(), target, key, offset, src, bytes, na, pending);
}

void Nic::put_at(Time issue, int target, MemKey key, std::uint64_t offset,
                 const void* src, std::size_t bytes, NotifyAttr na,
                 PendingOps* pending) {
  put_leg(issue, target, bytes, na, pending,
          [key, offset, src, bytes](Nic& tgt) {
            // Zero-byte puts still validate the target address (paper: the
            // calls support zero-byte payloads, notification only).
            std::byte* dst = tgt.resolve(key, offset, bytes);
            if (bytes > 0) std::memcpy(dst, src, bytes);
          });
}

void Nic::put_iov(int target, MemKey key,
                  std::span<const IoSegment> segments, NotifyAttr na,
                  PendingOps* pending) {
  std::size_t total = 0;
  for (const auto& s : segments) total += s.bytes;
  if (na.notify) acquire_credit(target, FlowControl::Queue::kDestCq, na.msg);
  // Segment list captured by value: the descriptors are consumed at issue,
  // the referenced payloads at delivery (standard RDMA source semantics).
  put_leg(ctx_.now(), target, total, na, pending,
          [key, segs = std::vector<IoSegment>(segments.begin(),
                                              segments.end())](Nic& tgt) {
            for (const auto& s : segs)
              if (s.bytes > 0)
                std::memcpy(tgt.resolve(key, s.offset, s.bytes), s.src,
                            s.bytes);
          });
}

void Nic::get(int target, MemKey key, std::uint64_t offset, void* dst,
              std::size_t bytes, NotifyAttr na, PendingOps* pending) {
  if (na.notify) acquire_credit(target, FlowControl::Queue::kDestCq, na.msg);
  const Transport tr = fabric_.transport_for(rank(), target, bytes);
  Nic* tgt = &fabric_.nic(target);
  if (pending) ++pending->issued;
  ++fabric_.counters().data_transfers;
  g_src_pending_.add(1, ctx_.now());

  // Request header travels to the target; the target NIC reads the region,
  // notifies (reliable network: notification as soon as the data has been
  // read, paper Sec. VIII), and streams the response back on the response
  // channel. Local completion fires when the response has fully arrived.
  //
  // The data is snapshotted at read time: once the get-notification is
  // visible, the target may legally overwrite its buffer (that is the whole
  // point of notified reads), so the in-flight response must not observe
  // later writes.
  fabric_.schedule_transfer(
      rank(), target, ctx_.now(), 0, tr, Fabric::ChannelClass::kData,
      [this, tgt, target, key, offset, dst, bytes, na, tr,
       pending](Time t_req) {
        auto wire = std::make_shared<std::vector<std::byte>>();
        if (bytes > 0) {
          const std::byte* s = tgt->resolve(key, offset, bytes);
          wire->assign(s, s + bytes);
        }
        if (na.notify)
          tgt->push_cqe(Cqe{CqeKind::kGetNotify, na.imm,
                            static_cast<std::uint32_t>(bytes), na.window,
                            t_req, na.msg});
        respond(target, t_req, bytes, tr, na, pending,
                [wire = std::move(wire), dst, bytes] {
                  if (bytes > 0) std::memcpy(dst, wire->data(), bytes);
                });
      },
      na.msg);
}

void Nic::atomic(int target, MemKey key, std::uint64_t offset, AtomicOp op,
                 std::int64_t operand, std::int64_t compare,
                 std::int64_t* result, NotifyAttr na, PendingOps* pending) {
  if (na.notify) acquire_credit(target, FlowControl::Queue::kDestCq, na.msg);
  const Transport tr =
      fabric_.transport_for(rank(), target, sizeof(std::int64_t));
  Nic* tgt = &fabric_.nic(target);
  if (pending) ++pending->issued;
  ++fabric_.counters().data_transfers;
  g_src_pending_.add(1, ctx_.now());

  const Time exec_cost = fabric_.params().atomic_exec;
  fabric_.schedule_transfer(
      rank(), target, ctx_.now(), sizeof(std::int64_t), tr,
      Fabric::ChannelClass::kData,
      [this, tgt, target, key, offset, op, operand, compare, result, na, tr,
       pending, exec_cost](Time t_req) {
        std::byte* loc = tgt->resolve(key, offset, sizeof(std::int64_t));
        std::int64_t old;
        std::memcpy(&old, loc, sizeof(old));
        std::int64_t next = old;
        switch (op) {
          case AtomicOp::kAddI64: next = old + operand; break;
          case AtomicOp::kAddF64: {
            const double d =
                std::bit_cast<double>(old) + std::bit_cast<double>(operand);
            next = std::bit_cast<std::int64_t>(d);
            break;
          }
          case AtomicOp::kSwapI64: next = operand; break;
          case AtomicOp::kCasI64:
            next = (old == compare) ? operand : old;
            break;
        }
        std::memcpy(loc, &next, sizeof(next));
        const Time t_done = t_req + exec_cost;
        if (na.notify)
          tgt->push_cqe(Cqe{CqeKind::kAtomicNotify, na.imm,
                            sizeof(std::int64_t), na.window, t_done,
                            na.msg});
        respond(target, t_done, sizeof(std::int64_t), tr, na, pending,
                [result, old] {
                  if (result) *result = old;
                });
      },
      na.msg);
}

// --- Control messages ---------------------------------------------------------

void Nic::send_msg(int target, NetMsg msg) {
  acquire_credit(target, FlowControl::Queue::kMailbox, msg.msg);
  const std::size_t wire =
      fabric_.params().ctrl_msg_bytes + msg.payload.size();
  const Transport tr = fabric_.transport_for(rank(), target, wire);
  Nic* tgt = &fabric_.nic(target);
  ++fabric_.counters().ctrl_transfers;
  msg.src = rank();
  const std::uint64_t mid = msg.msg;
  auto shared = std::make_shared<NetMsg>(std::move(msg));
  fabric_.schedule_transfer(
      rank(), target, ctx_.now(), wire, tr, Fabric::ChannelClass::kData,
      [tgt, shared](Time t) {
        shared->time = t;
        tgt->push_msg(std::move(*shared));
      },
      mid);
}

// --- Shared-memory notification ring ------------------------------------------

void Nic::send_shm_notification(int target, ShmNotification n,
                                PendingOps* pending) {
  NARMA_CHECK(fabric_.same_node(rank(), target))
      << "shm notification to remote node (rank " << rank() << " -> "
      << target << ")";
  acquire_credit(target, FlowControl::Queue::kShmRing, n.msg);
  Nic* tgt = &fabric_.nic(target);
  if (pending) ++pending->issued;
  g_src_pending_.add(1, ctx_.now());
  // One cache line on the intra-node interconnect. Delivery at the target
  // and local completion (coherent shared memory completes at delivery)
  // happen at the same instant, so one event does both, in that order.
  const Time deliver = fabric_.reserve_transfer(
      rank(), target, ctx_.now(), 64, Transport::kShm,
      Fabric::ChannelClass::kData, n.msg);
  n.time = deliver;
  auto deliver_and_complete = [this, tgt, n, pending] {
    tgt->push_shm(n);
    if (pending) ++pending->completed;
    g_src_pending_.add(-1, n.time);
    progress_.notify(fabric_.engine(), n.time);
  };
  static_assert(sizeof(deliver_and_complete) <= sim::EventPool::kBlockBytes);
  fabric_.engine().post(deliver, deliver_and_complete);
}

}  // namespace narma::net
