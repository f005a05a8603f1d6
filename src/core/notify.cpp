#include "core/notify.hpp"

#include <array>
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

/// The batch buffer every hardware-queue drain on this thread fills. Ranks
/// run as fibers of one thread, and a matching pass never yields or runs
/// events between its drain and its last read of the batch, so one buffer
/// serves every engine on the thread: no per-rank memory and no per-call
/// initialization. `busy` marks a pass in flight.
struct DrainBuffer {
  std::array<net::HwNotification, NaEngine::kMaxHwDrainBatch> slots;
  bool busy = false;
};
constinit thread_local DrainBuffer t_drain;

/// Holds the drain buffer for one test()/iprobe() pass and asserts
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

std::size_t SlotPool::index_of(const RequestSlot* slot) const {
  for (std::size_t i = 0; i < slabs_.size(); ++i) {
    const RequestSlot* base = slabs_[i].get();
    if (slot >= base && slot < base + kSlabSlots)
      return i * kSlabSlots + static_cast<std::size_t>(slot - base);
  }
  NARMA_CHECK(false) << "request slot not owned by this pool";
  return 0;
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

  if (fabric.same_node(nic.rank(), target)) {
    // XPMEM path (paper Sec. IV-C): a cache-line notification ring entry.
    net::ShmNotification n;
    n.inline_data = {};
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
      net::copy_inline(n.inline_data.data(), src.data(), bytes);
    } else {
      // Optimized memcpy + fence, then the notification (same channel, so
      // FIFO delivery guarantees the data is committed first). The data
      // leg is a put of its own to the trace: the notification's MsgId
      // follows the leg the consumer waits on.
      n.inline_len = 0;
      net::NotifyAttr data;
      data.msg = trace_begin(nic, obs::MsgOp::kPut, target, bytes);
      trace_issue(nic, data.msg);
      nic.put(target, win.remote_key(target), offset, src.data(), bytes,
              data, &win.pending(target));
    }
    nic.send_shm_notification(target, n, &win.pending(target));
    return;
  }

  // Hardware notification path: RDMA put whose immediate lands on the
  // target's destination CQ (uGNI).
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

namespace {

// Modelled addresses for the cache model (paper Sec. V). Each structure the
// matching engine touches has its own line-aligned base, far from the
// others, and its element i sits at base + i x the element's size. The miss
// counts then follow the matching logic alone, never where the host
// allocator happened to place the structures.
constexpr std::uint64_t kModelRequestSlots = 1ull << 32;
constexpr std::uint64_t kModelUqHeader = 2ull << 32;
constexpr std::uint64_t kModelUqEntries = 3ull << 32;
constexpr std::uint64_t kModelDestCq = 4ull << 32;
constexpr std::uint64_t kModelShmRing = 5ull << 32;
// One hardware-queue entry is one cache line, as the shm ring's entry is.
constexpr std::size_t kModelHwEntryBytes = 64;

}  // namespace

void NaEngine::charge_request(const RequestSlot& s) {
  const std::uint64_t m = cache_->touch(
      kModelRequestSlots + pool_.index_of(&s) * sizeof(RequestSlot),
      sizeof(RequestSlot));
  misses_.request += m;
  c_miss_request_.inc(m);
}

void NaEngine::charge_uq(std::uint64_t addr, std::size_t bytes) {
  const std::uint64_t m = cache_->touch(addr, bytes);
  misses_.uq += m;
  c_miss_uq_.inc(m);
}

void NaEngine::charge_hw(const net::HwNotification& e) {
  const std::uint64_t m = cache_->touch(
      (e.from_shm ? kModelShmRing : kModelDestCq) +
          std::uint64_t{e.queue_slot} * kModelHwEntryBytes,
      kModelHwEntryBytes);
  misses_.hw_cq += m;
  c_miss_hw_.inc(m);
}

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
    net::copy_inline(dst, e.inline_data.data(), e.inline_len);
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

std::span<const net::HwNotification> NaEngine::drain_hw(std::size_t max) {
  NARMA_ASSERT(t_drain.busy && max <= t_drain.slots.size());
  net::Nic& nic = router_.nic();
  const std::span<net::HwNotification> out{t_drain.slots.data(), max};
  const std::size_t n = nic.pop_hw_batch(out);
  if (n == 0) return {};
  c_hw_drained_.inc(n);
  nic.ctx().advance(params_.cq_poll + (n - 1) * params_.cq_poll_batch);
  if (auto* mt = nic.fabric().msgtrace()) {
    const Time now = nic.ctx().now();
    for (std::size_t i = 0; i < n; ++i)
      if (out[i].msg) mt->hop(out[i].msg, rank(), obs::HopKind::kPop, now);
  }
  if (cache_)
    for (std::size_t i = 0; i < n; ++i) charge_hw(out[i]);
  return out.first(n);
}

void NaEngine::test_linear(RequestSlot& s, NaStatus& st) {
  net::Nic& nic = router_.nic();
  // Second compulsory access: the UQ header (head pointer + first entries
  // share a cache line in the paper's layout; we model the header access).
  if (cache_) charge_uq(kModelUqHeader, 8);

  // 1) Scan the unexpected queue in arrival order.
  for (auto it = uq_.begin(); it != uq_.end() && s.matched < s.expected;) {
    nic.ctx().advance(params_.uq_scan);
    ++pass_probes_;
    if (cache_ && it != uq_.begin()) {
      const auto i = static_cast<std::uint64_t>(it - uq_.begin());
      charge_uq(kModelUqEntries + i * sizeof(net::HwNotification),
                sizeof(net::HwNotification));
    }
    if (matches(s, it->imm, it->window)) {
      consume(s, st, *it);
      it = uq_.erase(it);
    } else {
      ++it;
    }
  }

  // 2) Poll the hardware queues one entry at a time; non-matching
  //    notifications go to the UQ.
  const DrainPass pass;
  while (s.matched < s.expected) {
    const std::span<const net::HwNotification> one = drain_hw(1);
    if (one.empty()) break;
    const net::HwNotification& e = one.front();
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
  if (cache_) charge_uq(kModelUqHeader, 8);

  // 1) Consume from the indexed UQ: one hash probe finds the oldest
  //    matching notification regardless of queue depth.
  if (!uq_index_.empty()) {
    nic.ctx().advance(params_.uq_index_lookup);
    while (s.matched < s.expected) {
      const net::HwNotification* e = uq_index_.find(
          {s.window, static_cast<int>(s.source), s.tag});
      ++pass_probes_;
      h_index_list_len_.record(uq_index_.last_list_len());
      if (!e) break;
      if (cache_)
        charge_uq(kModelUqEntries +
                      uq_index_.position(e) * UqIndex::slot_bytes(),
                  sizeof(net::HwNotification));
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
    const std::span<const net::HwNotification> batch =
        drain_hw(params_.hw_drain_batch);
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
  if (cache_) charge_request(s);

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
  router_.wait_progress([this, &req] { return test(req); }, "na-wait");
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

namespace {

/// A probe's hit: fills `status` (when given) from the notification.
bool report_probe(const net::HwNotification& e, NaStatus* status) {
  if (status) {
    status->source = net::imm_source(e.imm);
    status->tag = static_cast<int>(net::imm_tag(e.imm));
    status->bytes = e.bytes;
  }
  return true;
}

}  // namespace

bool NaEngine::iprobe_linear(const RequestSlot& probe_slot,
                             NaStatus* status) {
  net::Nic& nic = router_.nic();

  for (const auto& e : uq_) {
    nic.ctx().advance(params_.uq_scan);
    if (matches(probe_slot, e.imm, e.window)) return report_probe(e, status);
  }
  // Pull hardware-queue entries into the UQ until a match surfaces (they
  // stay queued — a probe never consumes).
  const DrainPass pass;
  while (true) {
    const std::span<const net::HwNotification> one = drain_hw(1);
    if (one.empty()) return false;
    const net::HwNotification& e = one.front();
    uq_.push_back(e);
    c_uq_inserts_.inc();
    if (matches(probe_slot, e.imm, e.window)) return report_probe(e, status);
  }
}

bool NaEngine::iprobe_indexed(const RequestSlot& probe_slot,
                              NaStatus* status) {
  net::Nic& nic = router_.nic();

  if (!uq_index_.empty()) {
    nic.ctx().advance(params_.uq_index_lookup);
    if (const net::HwNotification* e = uq_index_.find(
            {probe_slot.window, static_cast<int>(probe_slot.source),
             probe_slot.tag}))
      return report_probe(*e, status);
  }
  // Park hardware-queue entries in the index until a match surfaces (a
  // probe never consumes). The whole popped batch is parked; the reported
  // match is the first in arrival order.
  const DrainPass pass;
  while (true) {
    const std::span<const net::HwNotification> batch =
        drain_hw(params_.hw_drain_batch);
    if (batch.empty()) return false;
    const net::HwNotification* hit = nullptr;
    for (const net::HwNotification& e : batch) {
      if (!hit && matches(probe_slot, e.imm, e.window)) hit = &e;
      nic.ctx().advance(params_.uq_index_insert);
      uq_index_.insert(e);
      c_uq_inserts_.inc();
    }
    if (hit) return report_probe(*hit, status);
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
