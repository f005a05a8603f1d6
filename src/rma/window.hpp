// MPI-3-style one-sided communication: windows, put/get/atomics, and the
// standard synchronization modes the paper compares against —
//
//  * flush          — passive-target remote completion per target
//  * fence          — collective epoch separation (flush_all + barrier)
//  * PSCW           — general active target (post/start/complete/wait)
//
// A Window is created collectively through the per-rank WinManager; creation
// allgathers the registered memory keys so any rank can address any other
// rank's region, like MPI_Win_allocate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "mp/endpoint.hpp"
#include "net/router.hpp"

namespace narma::rma {

struct RmaParams {
  Time o_put = ns(150);    // software overhead of issuing a put/get
  Time o_atomic = ns(180); // software overhead of issuing an atomic
  Time o_flush = ns(80);   // flush call overhead (plus the wait itself)
  Time o_sync = ns(200);   // per active-target synchronization call
};

class Window;

/// Remote-key table of one window, shared by all of its ranks. The
/// allgathered key vectors are identical on every rank, so the ranks adopt
/// one copy through a process-wide registry (window.cpp) instead of each
/// holding an nranks-sized copy — 2·n² keys per window at 4096 ranks would
/// dwarf the windows themselves.
struct KeyTable {
  std::vector<net::MemKey> mem;   // per-rank region keys
  std::vector<net::MemKey> lock;  // per-rank lock-word keys
};

/// Per-rank registry of windows; owns the PSCW message dispatch and hands
/// out collectively consistent window ids.
class WinManager {
 public:
  WinManager(net::MsgRouter& router, mp::Endpoint& ep, RmaParams params);
  ~WinManager();
  WinManager(const WinManager&) = delete;
  WinManager& operator=(const WinManager&) = delete;

  /// Collective. Every rank contributes its local region (sizes may differ);
  /// returns this rank's window object. All ranks must call create() the
  /// same number of times in the same order.
  std::unique_ptr<Window> create(void* base, std::size_t bytes,
                                 std::size_t disp_unit);

  /// Collective convenience: allocates a zero-initialized region of `bytes`
  /// owned by the returned window.
  std::unique_ptr<Window> allocate(std::size_t bytes, std::size_t disp_unit);

  net::MsgRouter& router() { return router_; }
  mp::Endpoint& endpoint() { return ep_; }
  const RmaParams& params() const { return params_; }

  /// Registers the rank's rma.* metric families; shared by every window the
  /// manager creates. Without it every hook stays a disengaged no-op.
  void bind_metrics(obs::Registry& reg);

 private:
  friend class Window;
  void on_pscw(net::NetMsg&& m);

  net::MsgRouter& router_;
  mp::Endpoint& ep_;
  RmaParams params_;
  std::uint64_t next_win_id_ = 1;
  std::unordered_map<std::uint64_t, Window*> windows_;

  // Observability (rma.* families); disengaged handles are no-ops.
  obs::Counter c_puts_;
  obs::Counter c_gets_;
  obs::Counter c_atomics_;
  obs::Counter c_flushes_;
  obs::Counter c_fences_;
  obs::Counter c_pscw_syncs_;
  obs::Histogram h_flush_wait_ns_;
};

class Window {
 public:
  ~Window();  // collective, like MPI_Win_free (synchronizes via barrier)
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  std::uint64_t id() const { return id_; }
  void* base() { return base_; }
  const void* base() const { return base_; }
  std::size_t bytes() const { return bytes_; }
  std::size_t disp_unit() const { return disp_unit_; }
  int rank() const { return ep_.rank(); }
  int nranks() const { return ep_.nranks(); }

  /// Typed view of the local region.
  template <class T>
  std::span<T> local() {
    return {static_cast<T*>(base_), bytes_ / sizeof(T)};
  }

  // --- Data movement (nonblocking; complete via flush) ---------------------

  void put(const void* src, std::size_t bytes, int target,
           std::uint64_t target_disp);
  void get(void* dst, std::size_t bytes, int target,
           std::uint64_t target_disp);

  /// Strided (vector-datatype-style) put: `nblocks` blocks of
  /// `block_bytes`, read with `src_stride_bytes` between block starts and
  /// written with `target_stride` displacement units between block starts.
  /// Moves as a single network operation.
  void put_strided(const void* src, std::size_t block_bytes,
                   std::size_t nblocks, std::size_t src_stride_bytes,
                   int target, std::uint64_t target_disp,
                   std::uint64_t target_stride);

  /// Fetch-and-add on an 8-byte integer at the target; previous value is
  /// stored to *result (if non-null) once flushed.
  void fetch_add_i64(int target, std::uint64_t target_disp, std::int64_t v,
                     std::int64_t* result);
  void fetch_add_f64(int target, std::uint64_t target_disp, double v,
                     double* result);
  /// Compare-and-swap; previous value stored to *result once flushed.
  void compare_swap_i64(int target, std::uint64_t target_disp,
                        std::int64_t compare, std::int64_t desired,
                        std::int64_t* result);

  // --- Synchronization -------------------------------------------------------

  /// Waits for remote completion of all this rank's operations to `target`.
  void flush(int target);
  void flush_all();

  /// Collective epoch separation: remote-completes everything and barriers.
  void fence();

  /// General active target (PSCW).
  void post(std::span<const int> origin_group);
  void start(std::span<const int> target_group);
  void complete();
  void wait();
  bool test_pscw();  // nonblocking wait()

  /// Passive target: lock/unlock a target's window copy. Exclusive locks
  /// serialize against all others; shared locks only against exclusive.
  /// Implemented with NIC atomics on a per-window lock word (CAS for
  /// exclusive, fetch-add readers count for shared) with virtual-time
  /// backoff. unlock() remote-completes all operations to the target first
  /// (MPI passive-target semantics).
  enum class LockKind { kShared, kExclusive };
  void lock(LockKind kind, int target);
  void unlock(int target);
  void lock_all();    // shared lock on every rank
  void unlock_all();

  // --- Access for the Notified Access layer ----------------------------------

  net::Nic& nic() { return router_.nic(); }
  net::MemKey remote_key(int target) const {
    return keys_->mem[static_cast<std::size_t>(target)];
  }
  /// Completion counters for one target, materialized on first use. The NIC
  /// holds the returned pointer until the operations complete, which is why
  /// the map must be node-based (unordered_map references are never
  /// invalidated by inserts) — and why the last lookup can be memoized.
  net::PendingOps& pending(int target) {
    if (target != last_target_) {
      last_pending_ = &pending_[target];
      last_target_ = target;
    }
    return *last_pending_;
  }
  std::uint64_t byte_offset(std::uint64_t disp) const {
    return disp * disp_unit_;
  }

 private:
  friend class WinManager;
  Window(WinManager& mgr, std::uint64_t id, void* base, std::size_t bytes,
         std::size_t disp_unit, std::vector<std::byte> owned);

  void on_post(int src);
  void on_complete(int src);
  /// Sends one PSCW sync message (post or complete, `sub`) to `peer`,
  /// traced as a MsgOp::kPscwSync message.
  void send_pscw(int peer, std::uint64_t sub);

  WinManager& mgr_;
  net::MsgRouter& router_;
  mp::Endpoint& ep_;
  std::uint64_t id_;
  void* base_;
  std::size_t bytes_;
  std::size_t disp_unit_;
  std::vector<std::byte> owned_;       // storage when created via allocate
  std::shared_ptr<KeyTable> keys_;     // shared by the ranks of this window

  // Per-target state is sparse: a rank at scale talks to a handful of
  // neighbors, not to all n-1 peers, so these maps hold entries only for
  // targets actually touched (a 4096-rank window would otherwise carry
  // ~n-sized vectors per rank — n² aggregate).
  std::unordered_map<int, net::PendingOps> pending_;  // completion counters
  int last_target_ = -1;                   // memo of the last pending() hit
  net::PendingOps* last_pending_ = nullptr;

  // Passive-target lock word: 0 free, -1 exclusively held, n > 0 shared by
  // n readers. Registered separately; keys exchanged at creation. A map
  // entry exists exactly while this rank holds that target's lock.
  std::int64_t lock_word_ = 0;
  std::unordered_map<int, LockKind> locks_held_;

  // PSCW state (counts per peer; absent entry == 0).
  std::unordered_map<int, std::uint32_t> posts_from_;
  std::unordered_map<int, std::uint32_t> completes_from_;
  std::vector<int> access_group_;    // set by start()
  std::vector<int> exposure_group_;  // set by post()
};

}  // namespace narma::rma
