#include "core/notify.hpp"

#include <cstring>
#include <utility>

#include "obs/msgtrace.hpp"

namespace narma::na {

namespace {

/// Injection-site shim: samples a message at API entry (before the software
/// overhead is charged) and returns its MsgId, 0 when untraced.
obs::MsgId trace_begin(net::Nic& nic, obs::MsgOp op, int target,
                       std::size_t bytes) {
  obs::MsgTrace* mt = nic.fabric().msgtrace();
  if (!mt) return 0;
  return mt->begin(nic.rank(), op, target,
                   static_cast<std::uint32_t>(bytes), nic.ctx().now());
}

/// Issue hop: the op has paid its origin overhead and is handed to the NIC.
void trace_issue(net::Nic& nic, obs::MsgId mid) {
  if (mid)
    nic.fabric().msgtrace()->hop(mid, nic.rank(), obs::HopKind::kIssue,
                                 nic.ctx().now());
}

/// The batch buffer every indexed hardware-queue drain on this thread
/// fills. Ranks run as fibers of one thread, and a matching pass never
/// yields or runs events between its drain and its last read of the batch,
/// so one buffer serves every engine on the thread: no per-rank memory and
/// no per-call initialization. `busy` marks a pass in flight.
struct DrainBuffer {
  std::array<net::HwNotification, NaEngine::kMaxHwDrainBatch> slots;
  bool busy = false;
};
constinit thread_local DrainBuffer t_drain;

/// Holds the drain buffer for one indexed test()/iprobe() pass and asserts
/// that no other pass starts inside it.
class DrainPass {
 public:
  DrainPass() {
    NARMA_ASSERT(!t_drain.busy)
        << "re-entrant matching pass: the hardware-queue drain buffer is "
           "in use";
    t_drain.busy = true;
  }
  ~DrainPass() { t_drain.busy = false; }
  DrainPass(const DrainPass&) = delete;
  DrainPass& operator=(const DrainPass&) = delete;
};

}  // namespace

// ------------------------------------------------------------- SlotPool --

RequestSlot* SlotPool::alloc() {
  if (free_.empty()) {
    slabs_.push_back(std::make_unique<RequestSlot[]>(kSlabSlots));
    RequestSlot* base = slabs_.back().get();
    // Reverse order so the LIFO free list hands out ascending addresses.
    for (std::size_t i = kSlabSlots; i-- > 0;) free_.push_back(base + i);
    stats_.capacity += kSlabSlots;
  } else {
    ++stats_.recycled;
  }
  RequestSlot* s = free_.back();
  free_.pop_back();
  *s = RequestSlot{};
  ++stats_.live;
  return s;
}

void SlotPool::release(RequestSlot* slot) {
  NARMA_CHECK(slot != nullptr && stats_.live > 0);
  free_.push_back(slot);
  --stats_.live;
}

// -------------------------------------------------------------- UqIndex --

namespace {

/// Tombstones tolerated beyond the live entry count before the store is
/// compacted: amortizes each compaction over at least this many erases.
constexpr std::size_t kCompactSlack = 64;

}  // namespace

UqIndex::Key UqIndex::key_of(Kind kind, const net::HwNotification& n) {
  switch (kind) {
    case kExact:
      return {n.window, n.imm};
    case kByTag:
      return {n.window, net::imm_tag(n.imm)};
    case kBySrc:
      return {n.window, static_cast<std::uint64_t>(net::imm_source(n.imm))};
    default:
      return {n.window, 0};
  }
}

void UqIndex::link(Kind kind, std::uint32_t pos) {
  List& list = lists_[kind][key_of(kind, store_[pos])];
  store_[pos].next[kind] = kNil;
  if (list.tail == kNil)
    list.head = pos;
  else
    store_[list.tail].next[kind] = pos;
  list.tail = pos;
  ++list.len;
}

void UqIndex::link_store(Kind kind) {
  for (std::uint32_t pos = 0; pos < store_.size(); ++pos)
    if (store_[pos].live) link(kind, pos);
}

void UqIndex::insert(const net::HwNotification& n) {
  NARMA_CHECK(store_.size() < kNil) << "unexpected queue exceeds 2^32 slots";
  const auto pos = static_cast<std::uint32_t>(store_.size());
  store_.push_back(Slot{n});
  ++live_;
  for (int k = 0; k < kKinds; ++k)
    if (linked_ & (1u << k)) link(static_cast<Kind>(k), pos);
}

const net::HwNotification* UqIndex::find_oldest(std::uint64_t window,
                                                int source, int tag) {
  // Each request shape consults the one list kind whose members are exactly
  // its candidate set, in arrival order.
  Kind kind = kByWin;
  Key key{window, 0};
  if (source != kAnySource && tag != kAnyTag) {
    kind = kExact;
    key.sel = net::encode_imm(source, static_cast<std::uint32_t>(tag));
  } else if (tag != kAnyTag) {
    kind = kByTag;
    key.sel = static_cast<std::uint64_t>(tag);
  } else if (source != kAnySource) {
    kind = kBySrc;
    key.sel = static_cast<std::uint64_t>(source);
  }
  if (!(linked_ & (1u << kind))) {
    linked_ |= static_cast<std::uint8_t>(1u << kind);
    link_store(kind);
  }

  last_list_len_ = 0;
  auto it = lists_[kind].find(key);
  if (it == lists_[kind].end()) return nullptr;
  List& list = it->second;
  last_list_len_ = list.len;
  while (list.head != kNil && !store_[list.head].live) {
    list.head = store_[list.head].next[kind];  // consumed: prune lazily
    --list.len;
  }
  if (list.head == kNil) {
    list.tail = kNil;
    return nullptr;
  }
  return &store_[list.head];
}

void UqIndex::erase(const net::HwNotification* e) {
  const auto pos = static_cast<std::size_t>(static_cast<const Slot*>(e) -
                                            store_.data());
  NARMA_ASSERT(pos < store_.size() && store_[pos].live);
  store_[pos].live = false;
  --live_;
  if (store_.size() - live_ > live_ + kCompactSlack) compact();
}

void UqIndex::compact() {
  // Squeeze the tombstones out. Survivors keep their relative (arrival)
  // order, so relinking in store order rebuilds every list without a sort.
  std::erase_if(store_, [](const Slot& s) { return !s.live; });
  for (int k = 0; k < kKinds; ++k) {
    if (!(linked_ & (1u << k))) continue;
    ListMap& map = lists_[k];
    for (auto& kv : map) kv.second = List{};
    link_store(static_cast<Kind>(k));
    // Drained keys keep their (empty) list for the next park, unless there
    // are more of them than the live entries warrant.
    if (map.size() > live_ + kCompactSlack)
      std::erase_if(map, [](const auto& kv) { return kv.second.len == 0; });
  }
}

std::size_t UqIndex::linked_refs() const {
  std::size_t refs = 0;
  for (const ListMap& map : lists_)
    for (const auto& kv : map) refs += kv.second.len;
  return refs;
}

// --------------------------------------------------------- NotifyRequest --

NotifyRequest::~NotifyRequest() {
  if (slot_ && engine_) engine_->free(*this);
}

NotifyRequest::NotifyRequest(NotifyRequest&& other) noexcept
    : slot_(std::exchange(other.slot_, nullptr)),
      status_(other.status_),
      engine_(std::exchange(other.engine_, nullptr)) {}

NotifyRequest& NotifyRequest::operator=(NotifyRequest&& other) noexcept {
  if (this != &other) {
    // Release an already-owned slot through the engine so the pool gets it
    // back and t_free is charged — never drop it silently.
    if (slot_ && engine_) engine_->free(*this);
    slot_ = std::exchange(other.slot_, nullptr);
    status_ = other.status_;
    engine_ = std::exchange(other.engine_, nullptr);
  }
  return *this;
}

// -------------------------------------------------------------- NaEngine --

NaEngine::NaEngine(net::MsgRouter& router, NaParams params)
    : router_(router), params_(params) {
  NARMA_CHECK(params_.hw_drain_batch >= 1 &&
              params_.hw_drain_batch <= kMaxHwDrainBatch)
      << "NaParams::hw_drain_batch = " << params_.hw_drain_batch
      << " outside [1, " << kMaxHwDrainBatch << "]";
}

void NaEngine::bind_metrics(obs::Registry& reg) {
  const int r = rank();
  c_tests_ = reg.counter("na.tests", r);
  c_matches_ = reg.counter("na.matches", r);
  c_uq_inserts_ = reg.counter("na.uq_inserts", r);
  c_hw_drained_ = reg.counter("na.hw_drained", r);
  c_miss_request_ = reg.counter("na.cache_miss_request", r);
  c_miss_uq_ = reg.counter("na.cache_miss_uq", r);
  c_miss_hw_ = reg.counter("na.cache_miss_hw", r);
  g_uq_depth_ = reg.gauge("na.uq_depth", r);
  g_pool_live_ = reg.gauge("na.pool_live", r);
  h_match_probes_ = reg.histogram("na.match_probes", r);
  h_index_list_len_ = reg.histogram("na.index_list_len", r);
}

// --- Origin side --------------------------------------------------------------

void NaEngine::put_notify(rma::Window& win, std::span<const std::byte> src,
                          int target, std::uint64_t target_disp, int tag) {
  NARMA_CHECK(tag >= 0 && static_cast<std::uint32_t>(tag) <= net::kMaxTag)
      << "notified-access tag " << tag << " outside the " << net::kTagBits
      << "-bit immediate range (hardware constraint, paper Sec. III-B)";
  net::Nic& nic = router_.nic();
  const obs::MsgId mid =
      trace_begin(nic, obs::MsgOp::kPutNotify, target, src.size());
  nic.ctx().advance(params_.t_na);
  trace_issue(nic, mid);

  const std::size_t bytes = src.size();
  const std::uint32_t imm = net::encode_imm(nic.rank(), tag);
  const std::uint64_t offset = win.byte_offset(target_disp);
  net::Fabric& fabric = nic.fabric();

  // The routed backend decides how the notification surfaces; only the
  // shm-ring model takes the XPMEM software path below — every other model
  // (dest-CQ CQE, counting completion, write-with-immediate) is handled
  // inside the NIC behind the backend-neutral NotifyAttr.
  if (fabric.backend_for(nic.rank(), target).notify_model() ==
      net::NotifyModel::kShmRing) {
    // XPMEM path (paper Sec. IV-C): a cache-line notification ring entry.
    net::ShmNotification n;
    n.imm = imm;
    n.window = win.id();
    n.key = win.remote_key(target);
    n.offset = offset;
    n.bytes = static_cast<std::uint32_t>(bytes);
    n.msg = mid;
    if (params_.enable_shm_inline && bytes <= net::kShmInlineCapacity) {
      // Inline transfer: the payload rides inside the notification entry
      // and is committed by the target at match time.
      n.inline_len = static_cast<std::uint8_t>(bytes);
      if (bytes) std::memcpy(n.inline_data.data(), src.data(), bytes);
    } else {
      // Optimized memcpy + fence, then the notification (same channel, so
      // FIFO delivery guarantees the data is committed first). The trace
      // follows the notification leg — the one the consumer waits on.
      n.inline_len = 0;
      nic.put(target, win.remote_key(target), offset, src.data(), bytes, {},
              &win.pending(target));
    }
    nic.send_shm_notification(target, n, &win.pending(target));
    return;
  }

  // Hardware notification path: RDMA put with the immediate surfaced by
  // the routed backend (uGNI dest-CQ CQE, RAMC counting completion, verbs
  // write-with-immediate).
  net::NotifyAttr na{true, imm, win.id()};
  na.msg = mid;
  nic.put(target, win.remote_key(target), offset, src.data(), bytes, na,
          &win.pending(target));
}

void NaEngine::put_notify_strided(rma::Window& win,
                                  std::span<const std::byte> src,
                                  std::size_t block_bytes,
                                  std::size_t nblocks,
                                  std::size_t src_stride_bytes, int target,
                                  std::uint64_t target_disp,
                                  std::uint64_t target_stride, int tag) {
  NARMA_CHECK(tag >= 0 && static_cast<std::uint32_t>(tag) <= net::kMaxTag)
      << "notified-access tag " << tag << " outside the immediate range";
  NARMA_CHECK(nblocks == 0 ||
              src.size() >= (nblocks - 1) * src_stride_bytes + block_bytes)
      << "source span smaller than the strided extent";
  net::Nic& nic = router_.nic();
  const obs::MsgId mid = trace_begin(nic, obs::MsgOp::kPutNotifyStrided,
                                     target, block_bytes * nblocks);
  nic.ctx().advance(params_.t_na);
  trace_issue(nic, mid);
  const std::uint32_t imm = net::encode_imm(nic.rank(), tag);

  std::vector<net::Nic::IoSegment> segs;
  segs.reserve(nblocks);
  const std::byte* base = src.data();
  for (std::size_t b = 0; b < nblocks; ++b) {
    segs.push_back({win.byte_offset(target_disp + b * target_stride),
                    base + b * src_stride_bytes, block_bytes});
  }
  // Noncontiguous notified accesses always use the CQE path (one
  // notification for the whole shape); the shm inline optimization only
  // applies to small contiguous payloads.
  net::NotifyAttr na{true, imm, win.id()};
  na.msg = mid;
  nic.put_iov(target, win.remote_key(target), segs, na,
              &win.pending(target));
}

void NaEngine::get_notify(rma::Window& win, std::span<std::byte> dst,
                          int target, std::uint64_t target_disp, int tag) {
  NARMA_CHECK(tag >= 0 && static_cast<std::uint32_t>(tag) <= net::kMaxTag)
      << "notified-access tag " << tag << " outside the immediate range";
  net::Nic& nic = router_.nic();
  const obs::MsgId mid =
      trace_begin(nic, obs::MsgOp::kGetNotify, target, dst.size());
  nic.ctx().advance(params_.t_na);
  trace_issue(nic, mid);
  const std::uint32_t imm = net::encode_imm(nic.rank(), tag);
  // Both inter- and intra-node notified gets use the destination-CQ path:
  // uGNI immediates are available for reads too (unlike InfiniBand, paper
  // Sec. IV-A), and the target polls both queues anyway.
  net::NotifyAttr na{true, imm, win.id()};
  na.msg = mid;
  nic.get(target, win.remote_key(target), win.byte_offset(target_disp),
          dst.data(), dst.size(), na, &win.pending(target));
}

void NaEngine::fetch_add_notify_i64(rma::Window& win, int target,
                                    std::uint64_t target_disp, std::int64_t v,
                                    std::int64_t* result, int tag) {
  NARMA_CHECK(tag >= 0 && static_cast<std::uint32_t>(tag) <= net::kMaxTag);
  net::Nic& nic = router_.nic();
  const obs::MsgId mid = trace_begin(nic, obs::MsgOp::kAtomicNotify, target,
                                     sizeof(std::int64_t));
  nic.ctx().advance(params_.t_na);
  trace_issue(nic, mid);
  const std::uint32_t imm = net::encode_imm(nic.rank(), tag);
  net::NotifyAttr na{true, imm, win.id()};
  na.msg = mid;
  nic.atomic(target, win.remote_key(target), win.byte_offset(target_disp),
             net::Nic::AtomicOp::kAddI64, v, 0, result, na,
             &win.pending(target));
}

void NaEngine::compare_swap_notify_i64(rma::Window& win, int target,
                                       std::uint64_t target_disp,
                                       std::int64_t compare,
                                       std::int64_t desired,
                                       std::int64_t* result, int tag) {
  NARMA_CHECK(tag >= 0 && static_cast<std::uint32_t>(tag) <= net::kMaxTag);
  net::Nic& nic = router_.nic();
  const obs::MsgId mid = trace_begin(nic, obs::MsgOp::kAtomicNotify, target,
                                     sizeof(std::int64_t));
  nic.ctx().advance(params_.t_na);
  trace_issue(nic, mid);
  const std::uint32_t imm = net::encode_imm(nic.rank(), tag);
  net::NotifyAttr na{true, imm, win.id()};
  na.msg = mid;
  nic.atomic(target, win.remote_key(target), win.byte_offset(target_disp),
             net::Nic::AtomicOp::kCasI64, desired, compare, result, na,
             &win.pending(target));
}

// --- Target side ----------------------------------------------------------------

NotifyRequest NaEngine::notify_init(rma::Window& win, MatchSpec match,
                                    std::uint32_t expected) {
  NARMA_CHECK(match.any_source() ||
              (match.source >= 0 && match.source < win.nranks()))
      << "bad notification source " << match.source;
  NARMA_CHECK(match.any_tag() ||
              (match.tag >= 0 &&
               static_cast<std::uint32_t>(match.tag) <= net::kMaxTag))
      << "bad notification tag " << match.tag;
  NARMA_CHECK(expected >= 1) << "expected_count must be positive";
  router_.nic().ctx().advance(params_.t_init);

  NotifyRequest req;
  req.engine_ = this;
  req.slot_ = pool_.alloc();
  req.slot_->window = win.id();
  req.slot_->source = match.source;
  req.slot_->tag = match.tag;
  req.slot_->expected = expected;
  req.slot_->matched = 0;
  req.slot_->started = 0;
  g_pool_live_.set(static_cast<std::int64_t>(pool_.stats().live),
                   router_.nic().ctx().now());
  return req;
}

void NaEngine::start(NotifyRequest& req) {
  NARMA_CHECK(req.valid()) << "start on an invalid notification request";
  router_.nic().ctx().advance(params_.t_start);
  req.slot_->matched = 0;  // "MPI_Start simply resets the matched counter"
  req.slot_->started = 1;
}

void NaEngine::consume(RequestSlot& s, NaStatus& st,
                       const net::HwNotification& e) {
  ++s.matched;
  c_matches_.inc();
  st.source = net::imm_source(e.imm);
  st.tag = static_cast<int>(net::imm_tag(e.imm));
  st.bytes = e.bytes;
  if (e.inline_len > 0) {
    // Inline shm payload: commit to the window region now (match time).
    router_.nic().ctx().advance(params_.inline_commit);
    std::byte* dst = router_.nic().resolve(e.key, e.offset, e.inline_len);
    std::memcpy(dst, e.inline_data.data(), e.inline_len);
  } else if (e.from_shm) {
    // Copy-then-notify shm path: pay the remote-line fetch + fence check
    // that the inline transfer avoids.
    router_.nic().ctx().advance(params_.shm_noninline_commit);
  }
  if (e.msg) {
    last_consumed_msg_ = e.msg;
    if (auto* mt = router_.nic().fabric().msgtrace())
      mt->hop(e.msg, rank(), obs::HopKind::kMatchHit,
              router_.nic().ctx().now());
  }
}

bool NaEngine::pop_hw(net::HwNotification& out) {
  net::Nic& nic = router_.nic();
  if (nic.pop_hw_batch({&out, 1}) == 0) return false;
  if (cache_) {
    // Hardware-queue access; tracked but not counted as matching overhead.
    const std::uint64_t m = cache_->touch_span(out.queue_slot, 64);
    misses_.hw_cq += m;
    c_miss_hw_.inc(m);
  }
  c_hw_drained_.inc();
  nic.ctx().advance(params_.cq_poll);
  // Backend-specific drain cost (RAMC ring-slot pop, verbs RQE repost);
  // zero for shm/aries, so the default path advances by nothing.
  if (const Time c = nic.fabric().consume_overhead(out.backend)) {
    nic.ctx().advance(c);
    nic.fabric().note_drain(rank(), out.backend, c);
  }
  if (out.msg)
    if (auto* mt = nic.fabric().msgtrace())
      mt->hop(out.msg, rank(), obs::HopKind::kPop, nic.ctx().now());
  return true;
}

std::span<const net::HwNotification> NaEngine::drain_hw() {
  NARMA_ASSERT(t_drain.busy);
  net::Nic& nic = router_.nic();
  const std::span<net::HwNotification> out{t_drain.slots.data(),
                                           params_.hw_drain_batch};
  const std::size_t n = nic.pop_hw_batch(out);
  if (n == 0) return {};
  c_hw_drained_.inc(n);
  nic.ctx().advance(params_.cq_poll + (n - 1) * params_.cq_poll_batch);
  // Backend-specific per-entry drain costs (RAMC ring-slot pop, verbs RQE
  // repost); zero on the default shm/aries path.
  Time consume = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (const Time c = nic.fabric().consume_overhead(out[i].backend)) {
      consume += c;
      nic.fabric().note_drain(rank(), out[i].backend, c);
    }
  }
  if (consume) nic.ctx().advance(consume);
  if (auto* mt = nic.fabric().msgtrace()) {
    const Time now = nic.ctx().now();
    for (std::size_t i = 0; i < n; ++i)
      if (out[i].msg) mt->hop(out[i].msg, rank(), obs::HopKind::kPop, now);
  }
  if (cache_) {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < n; ++i)
      m += cache_->touch_span(out[i].queue_slot, 64);
    misses_.hw_cq += m;
    c_miss_hw_.inc(m);
  }
  return out.first(n);
}

void NaEngine::test_linear(RequestSlot& s, NaStatus& st) {
  net::Nic& nic = router_.nic();
  // Second compulsory access: the UQ header (head pointer + first entries
  // share a cache line in the paper's layout; we model the header access).
  if (cache_) {
    const std::uint64_t m = cache_->touch_span(&uq_, 8);
    misses_.uq += m;
    c_miss_uq_.inc(m);
  }

  // 1) Scan the unexpected queue in arrival order.
  for (auto it = uq_.begin(); it != uq_.end() && s.matched < s.expected;) {
    nic.ctx().advance(params_.uq_scan);
    ++pass_probes_;
    if (cache_ && it != uq_.begin()) {
      const std::uint64_t m = cache_->touch_object(&*it);
      misses_.uq += m;
      c_miss_uq_.inc(m);
    }
    if (matches(s, it->imm, it->window)) {
      consume(s, st, *it);
      it = uq_.erase(it);
    } else {
      ++it;
    }
  }

  // 2) Poll the hardware queues; non-matching notifications go to the UQ.
  net::HwNotification e;
  while (s.matched < s.expected && pop_hw(e)) {
    ++pass_probes_;
    if (matches(s, e.imm, e.window)) {
      consume(s, st, e);
    } else {
      uq_.push_back(e);
      c_uq_inserts_.inc();
    }
  }
}

void NaEngine::test_indexed(RequestSlot& s, NaStatus& st) {
  net::Nic& nic = router_.nic();
  // Second compulsory access: the UQ-index header (bucket array head).
  if (cache_) {
    const std::uint64_t m = cache_->touch_span(&uq_index_, 8);
    misses_.uq += m;
    c_miss_uq_.inc(m);
  }

  // 1) Consume from the indexed UQ: one hash probe finds the oldest
  //    matching notification regardless of queue depth.
  if (!uq_index_.empty()) {
    nic.ctx().advance(params_.uq_index_lookup);
    while (s.matched < s.expected) {
      const net::HwNotification* e = uq_index_.find_oldest(
          s.window, static_cast<int>(s.source), s.tag);
      ++pass_probes_;
      h_index_list_len_.record(uq_index_.last_list_len());
      if (!e) break;
      if (cache_) {
        const std::uint64_t m = cache_->touch_object(e);
        misses_.uq += m;
        c_miss_uq_.inc(m);
      }
      consume(s, st, *e);
      uq_index_.erase(e);
    }
  }

  // 2) Drain the hardware queues in batches; non-matching notifications
  //    are parked in the index. Entries popped after the request completes
  //    mid-batch are parked too — nothing is lost, and parking in pop
  //    order preserves arrival order.
  const DrainPass pass;
  while (s.matched < s.expected) {
    const std::span<const net::HwNotification> batch = drain_hw();
    if (batch.empty()) break;
    for (const net::HwNotification& e : batch) {
      ++pass_probes_;
      if (s.matched < s.expected && matches(s, e.imm, e.window)) {
        consume(s, st, e);
      } else {
        nic.ctx().advance(params_.uq_index_insert);
        uq_index_.insert(e);
        c_uq_inserts_.inc();
      }
    }
  }
}

bool NaEngine::test(NotifyRequest& req, NaStatus* status) {
  // Host-time attribution: everything below (UQ scan / index probe, hardware
  // drain, consume bookkeeping) is matching work. Events drained on this
  // thread open their own narrower scopes and restore kMatch on exit.
  obs::PhaseScope prof_scope(router_.nic().fabric().profiler(),
                             obs::Phase::kMatch);
  NARMA_CHECK(req.valid() && req.engine_ == this);
  RequestSlot& s = *req.slot_;
  NARMA_CHECK(s.started) << "test on a notification request that was not "
                            "started (call start() after notify_init)";

  // Once completed, a request stays completed until restarted.
  if (s.matched >= s.expected) {
    if (status) *status = req.status_;
    return true;
  }

  net::Nic& nic = router_.nic();
  nic.ctx().drain();

  // First compulsory access: the request slot itself.
  if (cache_) {
    const std::uint64_t m = cache_->touch_object(&s);
    misses_.request += m;
    c_miss_request_.inc(m);
  }

  c_tests_.inc();
  pass_probes_ = 0;
  if (params_.matcher == Matcher::kLinear) {
    test_linear(s, req.status_);
  } else {
    test_indexed(s, req.status_);
  }
  h_match_probes_.record(pass_probes_);
  g_uq_depth_.set(static_cast<std::int64_t>(uq_size()), nic.ctx().now());

  if (s.matched >= s.expected) {
    nic.ctx().advance(params_.o_r);
    if (last_consumed_msg_) {
      if (auto* mt = nic.fabric().msgtrace())
        mt->hop(last_consumed_msg_, rank(), obs::HopKind::kWakeup,
                nic.ctx().now());
      last_consumed_msg_ = 0;
    }
    if (status) *status = req.status_;
    return true;
  }
  return false;
}

void NaEngine::wait(NotifyRequest& req, NaStatus* status) {
  sim::Tracer* tracer = router_.nic().fabric().tracer();
  const Time begin = router_.nic().ctx().now();
  router_.wait_progress([this, &req] { return test(req); }, "na-wait");
  if (tracer)
    tracer->span(rank(), "na", "wait", begin, router_.nic().ctx().now());
  if (status) *status = req.status_;
}

std::size_t NaEngine::wait_any(std::span<NotifyRequest*> reqs,
                               NaStatus* status) {
  NARMA_CHECK(!reqs.empty());
  std::size_t winner = reqs.size();
  router_.wait_progress(
      [this, reqs, &winner] {
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          if (test(*reqs[i])) {
            winner = i;
            return true;
          }
        }
        return false;
      },
      "na-wait-any");
  if (status) *status = reqs[winner]->status_;
  return winner;
}

void NaEngine::wait_all(std::span<NotifyRequest*> reqs) {
  router_.wait_progress(
      [this, reqs] {
        for (NotifyRequest* r : reqs)
          if (!test(*r)) return false;
        return true;
      },
      "na-wait-all");
}

void NaEngine::free(NotifyRequest& req) {
  NARMA_CHECK(req.valid());
  router_.nic().ctx().advance(params_.t_free);
  pool_.release(req.slot_);
  req.slot_ = nullptr;
  req.engine_ = nullptr;
  g_pool_live_.set(static_cast<std::int64_t>(pool_.stats().live),
                   router_.nic().ctx().now());
}

bool NaEngine::iprobe_linear(const RequestSlot& probe_slot,
                             NaStatus* status) {
  net::Nic& nic = router_.nic();
  auto report = [&](const net::HwNotification& e) {
    if (status) {
      status->source = net::imm_source(e.imm);
      status->tag = static_cast<int>(net::imm_tag(e.imm));
      status->bytes = e.bytes;
    }
    return true;
  };

  for (const auto& e : uq_) {
    nic.ctx().advance(params_.uq_scan);
    if (matches(probe_slot, e.imm, e.window)) return report(e);
  }
  // Pull hardware-queue entries into the UQ until a match surfaces (they
  // stay queued — a probe never consumes).
  net::HwNotification e;
  while (pop_hw(e)) {
    uq_.push_back(e);
    c_uq_inserts_.inc();
    if (matches(probe_slot, e.imm, e.window)) return report(e);
  }
  return false;
}

bool NaEngine::iprobe_indexed(const RequestSlot& probe_slot,
                              NaStatus* status) {
  net::Nic& nic = router_.nic();
  auto report = [&](const net::HwNotification& e) {
    if (status) {
      status->source = net::imm_source(e.imm);
      status->tag = static_cast<int>(net::imm_tag(e.imm));
      status->bytes = e.bytes;
    }
    return true;
  };

  if (!uq_index_.empty()) {
    nic.ctx().advance(params_.uq_index_lookup);
    if (const net::HwNotification* e = uq_index_.find_oldest(
            probe_slot.window, static_cast<int>(probe_slot.source),
            probe_slot.tag))
      return report(*e);
  }
  // Park hardware-queue entries in the index until a match surfaces (a
  // probe never consumes). The whole popped batch is parked; the reported
  // match is the first in arrival order.
  const DrainPass pass;
  while (true) {
    const std::span<const net::HwNotification> batch = drain_hw();
    if (batch.empty()) return false;
    const net::HwNotification* hit = nullptr;
    for (const net::HwNotification& e : batch) {
      if (!hit && matches(probe_slot, e.imm, e.window)) hit = &e;
      nic.ctx().advance(params_.uq_index_insert);
      uq_index_.insert(e);
      c_uq_inserts_.inc();
    }
    if (hit) return report(*hit);
  }
}

bool NaEngine::iprobe(rma::Window& win, MatchSpec match, NaStatus* status) {
  obs::PhaseScope prof_scope(router_.nic().fabric().profiler(),
                             obs::Phase::kMatch);
  NARMA_CHECK(match.any_source() ||
              (match.source >= 0 && match.source < win.nranks()));
  router_.nic().ctx().drain();

  // Probe matching reuses the request predicate with a throwaway slot.
  RequestSlot probe_slot;
  probe_slot.window = win.id();
  probe_slot.source = match.source;
  probe_slot.tag = match.tag;

  return params_.matcher == Matcher::kLinear
             ? iprobe_linear(probe_slot, status)
             : iprobe_indexed(probe_slot, status);
}

NaStatus NaEngine::probe(rma::Window& win, MatchSpec match) {
  NaStatus st;
  router_.wait_progress(
      [&] { return iprobe(win, match, &st); }, "na-probe");
  return st;
}

}  // namespace narma::na
