// The Notified Access engine — the paper's primary contribution.
//
// Origin side: put_notify / get_notify / fetch_add_notify attach a 32-bit
// <source, tag> immediate to a one-sided operation. The operation is a
// normal RMA access (hardware data path, completed locally via window
// flush), plus a completion notification delivered to the *target*.
//
// Target side: persistent notification requests (notify_init / start /
// test / wait) with MPI-style <source, tag> matching (MatchSpec), wildcards,
// and counting (a request completes after `expected` matching accesses).
//
// Matching engines (NaParams::matcher):
//
//  * kIndexed (default): notifications that fail to match are parked in an
//    indexed unexpected queue (UqIndex, the match index of
//    common/match_index.hpp that MP's queues use too, keyed per window), so
//    a test() is O(1) in UQ depth while reproducing the paper's Sec. IV-B
//    arrival-order semantics exactly. Hardware queues are drained in
//    batches (Nic::pop_hw_batch) into one buffer shared by the engines of a
//    thread, so one test amortizes CQ polling over a burst of completions;
//    in steady state neither the drain nor the index touches the heap.
//
//  * kLinear: the original algorithm — scan the UQ in arrival order, then
//    poll the hardware queues one entry at a time. Kept selectable for the
//    matching-cost ablation (bench/ablation_matching.cpp).
//
// Request slots live in a slab pool (SlotPool): contiguous 32-byte slots,
// free-list reuse, so the cache-model hooks keep charging the paper's
// Sec. V two-compulsory-lines story (request slot + UQ header) and
// notify_init/free never touch the general-purpose heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "cachesim/cache.hpp"
#include "common/match_index.hpp"
#include "core/na_params.hpp"
#include "net/router.hpp"
#include "obs/metrics.hpp"
#include "rma/window.hpp"

namespace narma::na {

/// Views an untyped buffer as the byte span the NA entry points consume.
/// Replaces the pre-MatchSpec raw-pointer overloads: callers say
/// `na.put_notify(win, as_bytes(&v, 8), ...)` instead of relying on an
/// implicit shim.
inline std::span<const std::byte> as_bytes(const void* p, std::size_t bytes) {
  return {static_cast<const std::byte*>(p), bytes};
}
inline std::span<std::byte> as_writable_bytes(void* p, std::size_t bytes) {
  return {static_cast<std::byte*>(p), bytes};
}

/// The hot per-request state. Mirrors the paper's 32-byte persistent request
/// ("two 8-byte values for the window and rank, two 4-byte values for tag
/// and a request type, and two 4-byte values for count and matched").
struct alignas(32) RequestSlot {
  std::uint64_t window = 0;
  std::int64_t source = kAnySource;
  std::int32_t tag = kAnyTag;
  std::int32_t started = 0;
  std::uint32_t expected = 0;
  std::uint32_t matched = 0;
};
static_assert(sizeof(RequestSlot) == 32);

/// Slab allocator backing RequestSlots: contiguous 32-byte slots carved from
/// 2 KiB slabs, recycled through a LIFO free list so the most recently freed
/// (hottest) slot is reused first. Slot addresses are stable for the life of
/// the pool.
class SlotPool {
 public:
  struct Stats {
    std::size_t live = 0;      // slots currently owned by requests
    std::size_t capacity = 0;  // slots ever carved from slabs
    std::size_t recycled = 0;  // allocations served by free-list reuse
  };

  RequestSlot* alloc();
  void release(RequestSlot* slot);
  const Stats& stats() const { return stats_; }

  /// Position of `slot` among all slots ever carved, in carving order.
  std::size_t index_of(const RequestSlot* slot) const;

 private:
  static constexpr std::size_t kSlabSlots = 64;  // 64 * 32 B = 2 KiB slabs

  std::vector<std::unique_ptr<RequestSlot[]>> slabs_;
  std::vector<RequestSlot*> free_;
  Stats stats_;
};

/// Match key of a parked notification: its window is the match space, and
/// its immediate carries the <source, tag> envelope.
struct NotificationKey {
  MatchKey operator()(const net::HwNotification& n) const {
    return {n.window, net::imm_source(n.imm),
            static_cast<int>(net::imm_tag(n.imm))};
  }
};
static_assert(kAnySource == kMatchAny && kAnyTag == kMatchAny);

/// Indexed unexpected queue: a request's oldest matching notification is
/// one list front away, whatever the queue depth (common/match_index.hpp).
using UqIndex = MatchIndex<net::HwNotification, NotificationKey>;

class NaEngine;

/// Persistent notification request handle. Lifecycle (paper Sec. III-B1):
/// notify_init -> (start -> test/wait)* -> free. Freeing is explicit via
/// NaEngine::free or implicit on destruction. The slot is pool-backed: a
/// moved-into request that already owns a slot releases it through
/// NaEngine::free (charging t_free) before adopting the new one.
class NotifyRequest {
 public:
  NotifyRequest() = default;
  ~NotifyRequest();
  NotifyRequest(NotifyRequest&& other) noexcept;
  NotifyRequest& operator=(NotifyRequest&& other) noexcept;
  NotifyRequest(const NotifyRequest&) = delete;
  NotifyRequest& operator=(const NotifyRequest&) = delete;

  bool valid() const { return slot_ != nullptr; }
  /// Status of the last matching access of the last completion.
  const NaStatus& status() const { return status_; }
  std::uint32_t matched() const { return slot_ ? slot_->matched : 0; }

 private:
  friend class NaEngine;
  RequestSlot* slot_ = nullptr;  // owned; backed by the engine's SlotPool
  NaStatus status_;
  NaEngine* engine_ = nullptr;
};

/// Per-rank Notified Access engine.
class NaEngine {
 public:
  /// Upper bound on NaParams::hw_drain_batch (the drain buffer's size).
  static constexpr std::size_t kMaxHwDrainBatch = 64;

  NaEngine(net::MsgRouter& router, NaParams params);
  NaEngine(const NaEngine&) = delete;
  NaEngine& operator=(const NaEngine&) = delete;

  const NaParams& params() const { return params_; }
  int rank() const { return router_.nic().rank(); }

  // --- Origin side ---------------------------------------------------------

  /// Notified put: one-sided write plus a <source, tag> notification that
  /// becomes visible at the target when the data is committed. Local
  /// completion via win.flush(target), as in the paper's Listing 1.
  void put_notify(rma::Window& win, std::span<const std::byte> src,
                  int target, std::uint64_t target_disp, int tag);

  /// Notified get: one-sided read; the *target* is notified when its memory
  /// has been read and may reuse the buffer (reliable-network semantics).
  void get_notify(rma::Window& win, std::span<std::byte> dst, int target,
                  std::uint64_t target_disp, int tag);

  /// Notified strided put (vector-datatype shape): one network operation,
  /// one notification covering the whole noncontiguous access. `src` must
  /// cover the full strided extent ((nblocks-1) * src_stride_bytes +
  /// block_bytes).
  void put_notify_strided(rma::Window& win, std::span<const std::byte> src,
                          std::size_t block_bytes, std::size_t nblocks,
                          std::size_t src_stride_bytes, int target,
                          std::uint64_t target_disp,
                          std::uint64_t target_stride, int tag);

  /// Notified fetch-and-add (the accumulate family of the strawman API).
  void fetch_add_notify_i64(rma::Window& win, int target,
                            std::uint64_t target_disp, std::int64_t v,
                            std::int64_t* result, int tag);

  /// Notified compare-and-swap (paper Sec. III-B: "similar functions can be
  /// created for MPI's accumulate operations (... compare and swap)").
  void compare_swap_notify_i64(rma::Window& win, int target,
                               std::uint64_t target_disp,
                               std::int64_t compare, std::int64_t desired,
                               std::int64_t* result, int tag);

  // --- Target side -----------------------------------------------------------

  /// Initializes a persistent request matching `expected` notified accesses
  /// whose <source, tag> satisfies `match` on `win`.
  NotifyRequest notify_init(rma::Window& win, MatchSpec match,
                            std::uint32_t expected);

  /// Re-arms a persistent request (resets the matched counter).
  void start(NotifyRequest& req);

  /// Nonblocking completion check; runs the matching algorithm. Returns
  /// true when `expected` matching accesses have been observed.
  bool test(NotifyRequest& req, NaStatus* status = nullptr);

  /// Blocks until the request completes.
  void wait(NotifyRequest& req, NaStatus* status = nullptr);

  /// Blocks until at least one of the (started) requests completes and
  /// returns its index (lowest completed index; MPI_Waitany semantics).
  std::size_t wait_any(std::span<NotifyRequest*> reqs,
                       NaStatus* status = nullptr);

  /// Blocks until every request completes (MPI_Waitall semantics).
  void wait_all(std::span<NotifyRequest*> reqs);

  /// Releases a persistent request (charges t_free; the slot returns to
  /// the pool).
  void free(NotifyRequest& req);

  /// Nonblocking probe (paper Sec. III-B: "probe semantics can be added
  /// trivially"): reports whether a notification matching `match` on `win`
  /// has arrived, without consuming it. Non-matching hardware-queue
  /// entries inspected on the way are parked in the UQ as usual.
  bool iprobe(rma::Window& win, MatchSpec match, NaStatus* status = nullptr);

  /// Blocking probe: waits until a matching notification is available.
  NaStatus probe(rma::Window& win, MatchSpec match);

  // --- Introspection / instrumentation -----------------------------------------

  std::size_t uq_size() const { return uq_.size() + uq_index_.size(); }
  const SlotPool::Stats& pool_stats() const { return pool_.stats(); }

  /// Registers this engine's metric families (na.*) with the World's
  /// registry. Called from the Rank constructor; a disengaged engine (no
  /// registry) keeps every hook a single-branch no-op. The legacy
  /// SlotPool::Stats / CacheMisses structs stay as cheap accessors; the
  /// registry absorbs them as na.pool_live / na.cache_miss_* so one dump
  /// carries everything.
  void bind_metrics(obs::Registry& reg);

  struct CacheMisses {
    std::uint64_t request = 0;  // request-slot lines
    std::uint64_t uq = 0;       // unexpected-queue lines
    std::uint64_t hw_cq = 0;    // hardware queue lines (not counted as
                                // overhead by the paper)
  };
  /// Routes matching-engine memory accesses through `cache`; pass nullptr
  /// to disable. Misses accumulate in cache_misses().
  void set_cache_model(cachesim::Cache* cache) { cache_ = cache; }
  const CacheMisses& cache_misses() const { return misses_; }
  void reset_cache_misses() { misses_ = CacheMisses{}; }

 private:
  static bool matches(const RequestSlot& s, std::uint32_t imm,
                      std::uint64_t window) {
    return s.window == window &&
           (s.source == kAnySource ||
            s.source == net::imm_source(imm)) &&
           (s.tag == kAnyTag ||
            static_cast<std::uint32_t>(s.tag) == net::imm_tag(imm));
  }

  /// Applies a matched notification to the request (status, inline commit).
  void consume(RequestSlot& s, NaStatus& st, const net::HwNotification& e);
  /// Drains up to `max` hardware notifications (CQ and shm ring merged by
  /// arrival time) into the thread's drain buffer and returns the filled
  /// part; charges cq_poll for the first entry and cq_poll_batch for each
  /// additional one, and records hardware-queue cache lines. The linear
  /// matcher pops one entry at a time, the indexed one hw_drain_batch.
  /// Valid until the end of the caller's matching pass.
  std::span<const net::HwNotification> drain_hw(std::size_t max);

  /// Cache-model charges of the request slot, of `bytes` of the unexpected
  /// queue at modelled address `addr`, and of a hardware-queue entry.
  /// Callers check cache_ first.
  void charge_request(const RequestSlot& s);
  void charge_uq(std::uint64_t addr, std::size_t bytes);
  void charge_hw(const net::HwNotification& e);

  /// test()/iprobe() bodies of the two matching engines.
  void test_linear(RequestSlot& s, NaStatus& st);
  void test_indexed(RequestSlot& s, NaStatus& st);
  bool iprobe_linear(const RequestSlot& probe_slot, NaStatus* status);
  bool iprobe_indexed(const RequestSlot& probe_slot, NaStatus* status);

  net::MsgRouter& router_;
  NaParams params_;
  /// MsgId of the most recently consumed traced notification; the completing
  /// test() attributes its wakeup hop to it (and clears it). RequestSlot is
  /// pinned at 32 bytes, so this lives on the engine, not the slot.
  std::uint64_t last_consumed_msg_ = 0;
  // Legacy linear matcher state: the UQ header (head index into the deque)
  // is modeled as one cache line together with the first entries, per the
  // paper's layout argument.
  std::deque<net::HwNotification> uq_;
  // Indexed matcher state.
  UqIndex uq_index_;
  SlotPool pool_;
  cachesim::Cache* cache_ = nullptr;
  CacheMisses misses_;

  // Observability (na.* families); disengaged handles are no-ops.
  obs::Counter c_tests_;        // test()/iprobe() matching passes
  obs::Counter c_matches_;      // notifications consumed by requests
  obs::Counter c_uq_inserts_;   // notifications parked unexpectedly
  obs::Counter c_hw_drained_;   // entries popped off the hardware queues
  obs::Counter c_miss_request_; // cache-model misses, request-slot lines
  obs::Counter c_miss_uq_;      // cache-model misses, UQ lines
  obs::Counter c_miss_hw_;      // cache-model misses, hardware-queue lines
  obs::Gauge g_uq_depth_;       // parked notifications (both engines)
  obs::Gauge g_pool_live_;      // slab-pool occupancy (live request slots)
  obs::Histogram h_match_probes_;    // probes per matching pass
  obs::Histogram h_index_list_len_;  // candidate-list length per lookup
  std::uint64_t pass_probes_ = 0;    // probes in the current matching pass
};

}  // namespace narma::na
