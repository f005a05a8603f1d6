// Event storage for the discrete-event engine's hottest loop.
//
// Three pieces:
//
//  * InlineFn — a move-only callable with 48 bytes of inline storage. The
//    common NIC-delivery closures (a handful of pointers and integers) are
//    stored in place; larger ones fall back to a slab EventPool block, so
//    steady-state posting performs no heap allocation either way.
//  * EventPool — slab allocator for oversized closures, the SlotPool idiom
//    from core/notify.hpp: 128-byte blocks carved from 64-block slabs with
//    free-list reuse. Blocks larger than one slot go to ::operator new and
//    are counted (Stats::oversize).
//  * CalendarQueue — a bucketed calendar/ladder queue keyed on (time, seq).
//    Future events land in an unsorted bucket in O(1); a bucket is sorted
//    only when it becomes current ("bottom"), from which pop is a move-out
//    pop_back. For the engine's mostly-monotonic posting pattern this is
//    near-O(1) per op versus a binary heap's O(log n) compare/copy chain.
//
// Total order: (time, seq) ascending; the engine assigns seq from a single
// counter, so execution order — and with it every virtual-time result — is
// fully determined by the posting program.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"

namespace narma::sim {

/// Slab allocator for event closures that overflow InlineFn's inline
/// buffer. Single-threaded by the engine's one-runnable-thread invariant.
class EventPool {
 public:
  struct Stats {
    std::size_t live = 0;      // blocks currently owned by queued events
    std::size_t capacity = 0;  // blocks ever carved from slabs
    std::size_t recycled = 0;  // allocations served by free-list reuse
    std::size_t oversize = 0;  // closures too big even for a pool block
  };

  static constexpr std::size_t kBlockBytes = 128;

  void* alloc(std::size_t bytes);
  void release(void* p, std::size_t bytes);
  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kSlabBlocks = 64;  // 64 * 128 B = 8 KiB slabs

  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::vector<void*> free_;
  Stats stats_;
};

/// Move-only type-erased `void()` with small-buffer-optimized storage.
/// Closures up to kInlineBytes live inside the object (no allocation at
/// all); larger ones are placed in an EventPool block (slab-recycled) or,
/// without a pool, in ::operator new memory.
class InlineFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  InlineFn() = default;

  template <class F, class = std::enable_if_t<
                         !std::is_same_v<std::remove_cvref_t<F>, InlineFn>>>
  explicit InlineFn(F&& f, EventPool* pool = nullptr) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_.inl)) Fn(std::forward<F>(f));
      invoke_ = &invoke_inline<Fn>;
      manage_ = &manage_inline<Fn>;
    } else {
      void* p = pool ? pool->alloc(sizeof(Fn)) : ::operator new(sizeof(Fn));
      ::new (p) Fn(std::forward<F>(f));
      storage_.heap = {p, pool, sizeof(Fn)};
      invoke_ = &invoke_heap<Fn>;
      manage_ = &manage_heap<Fn>;
    }
  }

  InlineFn(InlineFn&& o) noexcept { move_from(o); }
  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  ~InlineFn() { reset(); }

  void operator()() { invoke_(*this); }
  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  enum class Op : std::uint8_t { kMoveTo, kDestroy };

  struct HeapRef {
    void* ptr;
    EventPool* pool;
    std::size_t bytes;
  };
  union Storage {
    alignas(std::max_align_t) std::byte inl[kInlineBytes];
    HeapRef heap;
  };

  template <class Fn>
  static void invoke_inline(InlineFn& self) {
    (*std::launder(reinterpret_cast<Fn*>(self.storage_.inl)))();
  }
  template <class Fn>
  static void manage_inline(Op op, InlineFn& self, InlineFn* dst) {
    Fn* f = std::launder(reinterpret_cast<Fn*>(self.storage_.inl));
    if (op == Op::kMoveTo)
      ::new (static_cast<void*>(dst->storage_.inl)) Fn(std::move(*f));
    f->~Fn();
  }
  template <class Fn>
  static void invoke_heap(InlineFn& self) {
    (*static_cast<Fn*>(self.storage_.heap.ptr))();
  }
  template <class Fn>
  static void manage_heap(Op op, InlineFn& self, InlineFn* dst) {
    if (op == Op::kMoveTo) {
      dst->storage_.heap = self.storage_.heap;  // pointer steal
      return;
    }
    const HeapRef h = self.storage_.heap;
    static_cast<Fn*>(h.ptr)->~Fn();
    if (h.pool)
      h.pool->release(h.ptr, h.bytes);
    else
      ::operator delete(h.ptr);
  }

  void move_from(InlineFn& o) noexcept {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (manage_) manage_(Op::kMoveTo, o, this);
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }
  void reset() {
    if (manage_) manage_(Op::kDestroy, *this, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  Storage storage_;
  void (*invoke_)(InlineFn&) = nullptr;
  void (*manage_)(Op, InlineFn&, InlineFn*) = nullptr;
};

/// A scheduled event: (time, seq) key plus the pooled closure.
struct CalEvent {
  Time time;
  std::uint64_t seq;
  InlineFn fn;
};

/// Bucketed calendar/ladder queue over CalEvents.
///
/// Layout: `bottom_` holds the current window [.., bottom_end_) sorted
/// descending by key so the minimum pops from the back by move; `buckets_`
/// cover [cal_start_, cal_end_) in `width_`-wide unsorted slices; events
/// beyond the calendar horizon collect in `overflow_`. When bottom drains,
/// the next nonempty bucket is swapped in and sorted once; when the whole
/// calendar drains, it is re-seeded from overflow with a width matched to
/// the observed time spread. All storage is recycled, so steady-state
/// push/pop performs no allocation.
class CalendarQueue {
 public:
  explicit CalendarQueue(std::uint32_t nbuckets)
      : buckets_(nbuckets), cal_end_(span_end(0, width_)) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(Time t, std::uint64_t seq, InlineFn fn) {
    insert(CalEvent{t, seq, std::move(fn)});
    ++size_;
  }

  /// Posts `n` closures at one timestamp with consecutive sequence numbers;
  /// the target segment (bucket, bottom position, or overflow) is located
  /// once for the whole batch.
  void push_batch(Time t, std::uint64_t first_seq, InlineFn* fns,
                  std::size_t n);

  /// Smallest pending (time); requires !empty().
  Time top_time() {
    settle();
    return bottom_.back().time;
  }

  /// Move-out pop of the minimum (time, seq) event; requires !empty().
  CalEvent pop() {
    settle();
    CalEvent ev = std::move(bottom_.back());
    bottom_.pop_back();
    --size_;
    return ev;
  }

 private:
  static bool key_less(const CalEvent& a, const CalEvent& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
  static Time span_end(Time start, Time width_times_n) {
    constexpr Time kMax = std::numeric_limits<Time>::max();
    return start > kMax - width_times_n ? kMax : start + width_times_n;
  }

  Time cal_span() const {
    return width_ * static_cast<Time>(buckets_.size());
  }

  void insert(CalEvent ev);
  std::size_t bottom_pos(Time t, std::uint64_t seq) const;
  void settle();   // ensure bottom_ nonempty (requires size_ > 0)
  void rebuild();  // re-seed the calendar from overflow_

  std::vector<CalEvent> bottom_;  // sorted descending; min at back()
  std::vector<std::vector<CalEvent>> buckets_;  // unsorted slices
  std::vector<CalEvent> overflow_;              // beyond cal_end_, unsorted
  Time width_ = 1;        // bucket width in picoseconds
  Time cal_start_ = 0;    // buckets_ cover [cal_start_, cal_end_)
  Time cal_end_;
  Time bottom_end_ = 0;   // bottom_ holds everything below this time
  std::size_t cur_ = 0;   // next bucket to drain; [0, cur_) are empty
  std::size_t size_ = 0;
};

/// Dependency-free log2 histogram matching obs::HistData's bucket
/// convention (bucket index = bit_width(v); zero-valued samples in bucket
/// 0). sim cannot link obs — obs mirrors gauges into sim::Tracer — so the
/// engine records locally and World::run merges the buckets into the
/// metrics registry via obs::Histogram::record_multi.
struct Log2Hist {
  std::array<std::uint64_t, 64> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  void record(std::uint64_t v) {
    ++buckets[static_cast<std::size_t>(std::bit_width(v))];
    ++count;
    sum += v;
    if (count == 1 || v < min) min = v;
    if (v > max) max = v;
  }
};

}  // namespace narma::sim
