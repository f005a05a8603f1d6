#include "rma/window.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "mp/collectives.hpp"
#include "obs/msgtrace.hpp"

namespace narma::rma {

namespace {
constexpr std::uint32_t kPscwKind = 0x0201;
constexpr std::uint64_t kSubPost = 0;
constexpr std::uint64_t kSubComplete = 1;

// Process-wide registry of shared key tables, keyed by (fabric, window id):
// window ids are collectively consistent within a world, and the fabric
// address separates concurrently live worlds. Entries erase themselves when
// the last rank of a window drops its reference. No locking — ranks run one
// at a time under the engine's one-runnable-context invariant, in both
// execution models.
using KeyTableId = std::pair<const void*, std::uint64_t>;

std::map<KeyTableId, std::weak_ptr<KeyTable>>& key_table_registry() {
  static std::map<KeyTableId, std::weak_ptr<KeyTable>> registry;
  return registry;
}

std::shared_ptr<KeyTable> adopt_key_table(const void* fabric,
                                          std::uint64_t win_id) {
  auto& registry = key_table_registry();
  const KeyTableId id{fabric, win_id};
  if (auto it = registry.find(id); it != registry.end()) {
    if (auto table = it->second.lock()) return table;
  }
  auto table = std::shared_ptr<KeyTable>(
      new KeyTable, [id](KeyTable* t) {
        key_table_registry().erase(id);
        delete t;
      });
  registry[id] = table;
  return table;
}

// Lifecycle-trace helpers: begin() snapshots the injection instant before
// the API overhead is charged; trace_issue() marks the post-overhead handoff
// to the NIC. Both only read the clock.
obs::MsgId trace_begin(net::Nic& nic, obs::MsgOp op, int target,
                       std::size_t bytes) {
  obs::MsgTrace* mt = nic.fabric().msgtrace();
  if (!mt) return 0;
  return mt->begin(nic.rank(), op, target, static_cast<std::uint32_t>(bytes),
                   nic.ctx().now());
}

void trace_issue(net::Nic& nic, obs::MsgId mid) {
  if (mid)
    nic.fabric().msgtrace()->hop(mid, nic.rank(), obs::HopKind::kIssue,
                                 nic.ctx().now());
}
}  // namespace

// -------------------------------------------------------------- WinManager --

WinManager::WinManager(net::MsgRouter& router, mp::Endpoint& ep,
                       RmaParams params)
    : router_(router), ep_(ep), params_(params) {
  router_.register_kind(kPscwKind,
                        [this](net::NetMsg&& m) { on_pscw(std::move(m)); });
}

WinManager::~WinManager() {
  NARMA_CHECK(windows_.empty())
      << "WinManager destroyed with " << windows_.size()
      << " window(s) still alive at rank " << ep_.rank();
  router_.unregister_kind(kPscwKind);
}

void WinManager::bind_metrics(obs::Registry& reg) {
  const int r = ep_.rank();
  c_puts_ = reg.counter("rma.puts", r);
  c_gets_ = reg.counter("rma.gets", r);
  c_atomics_ = reg.counter("rma.atomics", r);
  c_flushes_ = reg.counter("rma.flushes", r);
  c_fences_ = reg.counter("rma.fences", r);
  c_pscw_syncs_ = reg.counter("rma.pscw_syncs", r);
  h_flush_wait_ns_ = reg.histogram("rma.flush_wait_ns", r);
}

void WinManager::on_pscw(net::NetMsg&& m) {
  auto it = windows_.find(m.h0);
  NARMA_CHECK(it != windows_.end())
      << "PSCW message for unknown window " << m.h0 << " at rank "
      << ep_.rank();
  if (m.h1 == kSubPost) {
    it->second->on_post(m.src);
  } else {
    it->second->on_complete(m.src);
  }
}

std::unique_ptr<Window> WinManager::create(void* base, std::size_t bytes,
                                           std::size_t disp_unit) {
  auto win = std::unique_ptr<Window>(new Window(
      *this, next_win_id_++, base, bytes, disp_unit, {}));
  return win;
}

std::unique_ptr<Window> WinManager::allocate(std::size_t bytes,
                                             std::size_t disp_unit) {
  std::vector<std::byte> storage(bytes, std::byte{0});
  void* base = storage.data();
  auto win = std::unique_ptr<Window>(new Window(
      *this, next_win_id_++, base, bytes, disp_unit, std::move(storage)));
  return win;
}

// ------------------------------------------------------------------ Window --

Window::Window(WinManager& mgr, std::uint64_t id, void* base,
               std::size_t bytes, std::size_t disp_unit,
               std::vector<std::byte> owned)
    : mgr_(mgr),
      router_(mgr.router()),
      ep_(mgr.endpoint()),
      id_(id),
      base_(base),
      bytes_(bytes),
      disp_unit_(disp_unit == 0 ? 1 : disp_unit),
      owned_(std::move(owned)) {
  const auto n = static_cast<std::size_t>(ep_.nranks());

  // Register with the manager before the collective key exchange: a peer
  // can finish the exchange first and immediately send PSCW traffic here.
  mgr_.windows_.emplace(id_, this);

  // Collective setup: register the local region and the lock word, and
  // allgather both keys so every rank can address every other rank's copy.
  // The gathered table is identical on every rank, so the window's ranks
  // share one copy; the allgather itself still runs everywhere — sharing
  // the storage does not change virtual time.
  const net::MemKey keys[2] = {
      nic().register_memory(base_, bytes_),
      nic().register_memory(&lock_word_, sizeof(lock_word_))};
  std::vector<net::MemKey> gathered(2 * n);
  mp::allgather(ep_, keys, sizeof(keys), gathered.data());
  keys_ = adopt_key_table(&nic().fabric(), id_);
  if (keys_->mem.empty()) {  // first rank to finish the exchange fills it
    keys_->mem.resize(n);
    keys_->lock.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      keys_->mem[r] = gathered[2 * r];
      keys_->lock[r] = gathered[2 * r + 1];
    }
  }
}

Window::~Window() {
  // MPI_Win_free semantics: collective and synchronizing. All outstanding
  // operations must be complete; flush for safety, then barrier.
  flush_all();
  mp::barrier(ep_);
  nic().deregister_memory(keys_->mem[static_cast<std::size_t>(rank())]);
  nic().deregister_memory(keys_->lock[static_cast<std::size_t>(rank())]);
  mgr_.windows_.erase(id_);
}

void Window::put(const void* src, std::size_t bytes, int target,
                 std::uint64_t target_disp) {
  // Host-time attribution: origin-side RMA plumbing (descriptor setup, NIC
  // handoff) counts as transfer work, like the other injection sites below.
  obs::PhaseScope prof_scope(nic().fabric().profiler(),
                             obs::Phase::kTransfer);
  const obs::MsgId mid = trace_begin(nic(), obs::MsgOp::kPut, target, bytes);
  router_.nic().ctx().advance(mgr_.params().o_put);
  trace_issue(nic(), mid);
  mgr_.c_puts_.inc();
  net::NotifyAttr attr;
  attr.msg = mid;
  nic().put(target, remote_key(target), byte_offset(target_disp), src, bytes,
            attr, &pending(target));
}

void Window::put_strided(const void* src, std::size_t block_bytes,
                         std::size_t nblocks, std::size_t src_stride_bytes,
                         int target, std::uint64_t target_disp,
                         std::uint64_t target_stride) {
  obs::PhaseScope prof_scope(nic().fabric().profiler(),
                             obs::Phase::kTransfer);
  const obs::MsgId mid = trace_begin(nic(), obs::MsgOp::kPutStrided, target,
                                     block_bytes * nblocks);
  router_.nic().ctx().advance(mgr_.params().o_put);
  trace_issue(nic(), mid);
  mgr_.c_puts_.inc();
  std::vector<net::Nic::IoSegment> segs;
  segs.reserve(nblocks);
  const auto* base = static_cast<const std::byte*>(src);
  for (std::size_t b = 0; b < nblocks; ++b) {
    segs.push_back({byte_offset(target_disp + b * target_stride),
                    base + b * src_stride_bytes, block_bytes});
  }
  net::NotifyAttr attr;
  attr.msg = mid;
  nic().put_iov(target, remote_key(target), segs, attr, &pending(target));
}

void Window::get(void* dst, std::size_t bytes, int target,
                 std::uint64_t target_disp) {
  obs::PhaseScope prof_scope(nic().fabric().profiler(),
                             obs::Phase::kTransfer);
  const obs::MsgId mid = trace_begin(nic(), obs::MsgOp::kGet, target, bytes);
  router_.nic().ctx().advance(mgr_.params().o_put);
  trace_issue(nic(), mid);
  mgr_.c_gets_.inc();
  net::NotifyAttr attr;
  attr.msg = mid;
  nic().get(target, remote_key(target), byte_offset(target_disp), dst, bytes,
            attr, &pending(target));
}

void Window::fetch_add_i64(int target, std::uint64_t target_disp,
                           std::int64_t v, std::int64_t* result) {
  obs::PhaseScope prof_scope(nic().fabric().profiler(),
                             obs::Phase::kTransfer);
  const obs::MsgId mid =
      trace_begin(nic(), obs::MsgOp::kAtomic, target, sizeof(std::int64_t));
  router_.nic().ctx().advance(mgr_.params().o_atomic);
  trace_issue(nic(), mid);
  mgr_.c_atomics_.inc();
  net::NotifyAttr attr;
  attr.msg = mid;
  nic().atomic(target, remote_key(target), byte_offset(target_disp),
               net::Nic::AtomicOp::kAddI64, v, 0, result, attr,
               &pending(target));
}

void Window::fetch_add_f64(int target, std::uint64_t target_disp, double v,
                           double* result) {
  obs::PhaseScope prof_scope(nic().fabric().profiler(),
                             obs::Phase::kTransfer);
  const obs::MsgId mid =
      trace_begin(nic(), obs::MsgOp::kAtomic, target, sizeof(double));
  router_.nic().ctx().advance(mgr_.params().o_atomic);
  trace_issue(nic(), mid);
  mgr_.c_atomics_.inc();
  net::NotifyAttr attr;
  attr.msg = mid;
  // The NIC's atomic unit is 8 bytes; reinterpret through the result slot.
  nic().atomic(target, remote_key(target), byte_offset(target_disp),
               net::Nic::AtomicOp::kAddF64, std::bit_cast<std::int64_t>(v), 0,
               reinterpret_cast<std::int64_t*>(result), attr,
               &pending(target));
}

void Window::compare_swap_i64(int target, std::uint64_t target_disp,
                              std::int64_t compare, std::int64_t desired,
                              std::int64_t* result) {
  obs::PhaseScope prof_scope(nic().fabric().profiler(),
                             obs::Phase::kTransfer);
  const obs::MsgId mid =
      trace_begin(nic(), obs::MsgOp::kAtomic, target, sizeof(std::int64_t));
  router_.nic().ctx().advance(mgr_.params().o_atomic);
  trace_issue(nic(), mid);
  mgr_.c_atomics_.inc();
  net::NotifyAttr attr;
  attr.msg = mid;
  nic().atomic(target, remote_key(target), byte_offset(target_disp),
               net::Nic::AtomicOp::kCasI64, desired, compare, result, attr,
               &pending(target));
}

void Window::flush(int target) {
  const Time begin = router_.nic().ctx().now();
  router_.nic().ctx().advance(mgr_.params().o_flush);
  router_.wait_progress(
      [this, target] { return pending(target).all_done(); }, "rma-flush");
  mgr_.c_flushes_.inc();
  mgr_.h_flush_wait_ns_.record_time(router_.nic().ctx().now() - begin);
}

void Window::flush_all() {
  const Time begin = router_.nic().ctx().now();
  router_.nic().ctx().advance(mgr_.params().o_flush);
  router_.wait_progress(
      [this] {
        // Order-independent conjunction, so map iteration order is fine.
        for (const auto& [t, p] : pending_)
          if (!p.all_done()) return false;
        return true;
      },
      "rma-flush-all");
  mgr_.c_flushes_.inc();
  mgr_.h_flush_wait_ns_.record_time(router_.nic().ctx().now() - begin);
}

void Window::fence() {
  router_.nic().ctx().advance(mgr_.params().o_sync);
  mgr_.c_fences_.inc();
  flush_all();
  mp::barrier(ep_);
}

// PSCW ------------------------------------------------------------------------

void Window::send_pscw(int peer, std::uint64_t sub) {
  // The o_sync overhead is charged once per call, before the loop, so each
  // sync message is injected and issued at the same instant.
  const obs::MsgId mid = trace_begin(nic(), obs::MsgOp::kPscwSync, peer, 0);
  trace_issue(nic(), mid);
  net::NetMsg m;
  m.kind = kPscwKind;
  m.h0 = id_;
  m.h1 = sub;
  m.msg = mid;
  router_.nic().send_msg(peer, std::move(m));
}

void Window::post(std::span<const int> origin_group) {
  router_.nic().ctx().advance(mgr_.params().o_sync);
  mgr_.c_pscw_syncs_.inc();
  exposure_group_.assign(origin_group.begin(), origin_group.end());
  for (int origin : exposure_group_) send_pscw(origin, kSubPost);
}

void Window::start(std::span<const int> target_group) {
  router_.nic().ctx().advance(mgr_.params().o_sync);
  mgr_.c_pscw_syncs_.inc();
  access_group_.assign(target_group.begin(), target_group.end());
  // Wait for a post from every target in the group.
  router_.wait_progress(
      [this] {
        for (int t : access_group_) {
          const auto it = posts_from_.find(t);
          if (it == posts_from_.end() || it->second == 0) return false;
        }
        return true;
      },
      "pscw-start");
  for (int t : access_group_) --posts_from_[t];
}

void Window::complete() {
  router_.nic().ctx().advance(mgr_.params().o_sync);
  mgr_.c_pscw_syncs_.inc();
  for (int t : access_group_) flush(t);
  for (int t : access_group_) send_pscw(t, kSubComplete);
  access_group_.clear();
}

bool Window::test_pscw() {
  router_.progress();
  for (int o : exposure_group_) {
    const auto it = completes_from_.find(o);
    if (it == completes_from_.end() || it->second == 0) return false;
  }
  return true;
}

void Window::wait() {
  router_.nic().ctx().advance(mgr_.params().o_sync);
  mgr_.c_pscw_syncs_.inc();
  router_.wait_progress(
      [this] {
        for (int o : exposure_group_) {
          const auto it = completes_from_.find(o);
          if (it == completes_from_.end() || it->second == 0) return false;
        }
        return true;
      },
      "pscw-wait");
  for (int o : exposure_group_) --completes_from_[o];
  exposure_group_.clear();
}

// Passive target --------------------------------------------------------------

void Window::lock(LockKind kind, int target) {
  NARMA_CHECK(locks_held_.find(target) == locks_held_.end())
      << "lock(" << target << ") while already holding it";
  router_.nic().ctx().advance(mgr_.params().o_sync);
  const net::MemKey lkey = keys_->lock[static_cast<std::size_t>(target)];
  net::PendingOps po;
  Time backoff = ns(200);
  for (;;) {
    std::int64_t old = 0;
    if (kind == LockKind::kExclusive) {
      // CAS 0 -> -1.
      nic().atomic(target, lkey, 0, net::Nic::AtomicOp::kCasI64, -1, 0, &old,
                   {}, &po);
      nic().flush(po, "rma-lock-excl");
      if (old == 0) break;
    } else {
      // Optimistic reader count; back out if an exclusive holder appeared.
      nic().atomic(target, lkey, 0, net::Nic::AtomicOp::kAddI64, 1, 0, &old,
                   {}, &po);
      nic().flush(po, "rma-lock-shared");
      if (old >= 0) break;
      nic().atomic(target, lkey, 0, net::Nic::AtomicOp::kAddI64, -1, 0,
                   nullptr, {}, &po);
      nic().flush(po, "rma-lock-shared-undo");
    }
    router_.nic().ctx().yield_until(router_.nic().ctx().now() + backoff,
                                    "rma-lock-backoff");
    backoff = std::min<Time>(backoff * 2, us(10));
  }
  locks_held_.emplace(target, kind);
}

void Window::unlock(int target) {
  const auto it = locks_held_.find(target);
  NARMA_CHECK(it != locks_held_.end())
      << "unlock(" << target << ") without holding the lock";
  // Remote-complete the epoch's operations before releasing.
  flush(target);
  const net::MemKey lkey = keys_->lock[static_cast<std::size_t>(target)];
  net::PendingOps po;
  if (it->second == LockKind::kExclusive) {
    std::int64_t old = 0;
    nic().atomic(target, lkey, 0, net::Nic::AtomicOp::kCasI64, 0, -1, &old,
                 {}, &po);
    nic().flush(po, "rma-unlock-excl");
    NARMA_CHECK(old == -1) << "exclusive lock word corrupted: " << old;
  } else {
    nic().atomic(target, lkey, 0, net::Nic::AtomicOp::kAddI64, -1, 0, nullptr,
                 {}, &po);
    nic().flush(po, "rma-unlock-shared");
  }
  locks_held_.erase(it);
}

void Window::lock_all() {
  for (int t = 0; t < nranks(); ++t) lock(LockKind::kShared, t);
}

void Window::unlock_all() {
  for (int t = 0; t < nranks(); ++t) unlock(t);
}

void Window::on_post(int src) { ++posts_from_[src]; }

void Window::on_complete(int src) { ++completes_from_[src]; }

}  // namespace narma::rma
