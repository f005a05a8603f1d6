#include "sim/event_queue.hpp"

#include <algorithm>

namespace narma::sim {

// -------------------------------------------------------------- EventPool --

void* EventPool::alloc(std::size_t bytes) {
  ++stats_.live;
  if (bytes > kBlockBytes) {
    ++stats_.oversize;
    return ::operator new(bytes);
  }
  if (free_.empty()) {
    auto slab = std::make_unique<std::byte[]>(kSlabBlocks * kBlockBytes);
    std::byte* base = slab.get();
    slabs_.push_back(std::move(slab));
    // Reserve so that release() can never reallocate: the free list's
    // capacity always covers every block ever carved.
    free_.reserve(free_.capacity() + kSlabBlocks);
    for (std::size_t i = kSlabBlocks; i-- > 0;)
      free_.push_back(base + i * kBlockBytes);
    stats_.capacity += kSlabBlocks;
  } else {
    ++stats_.recycled;
  }
  void* p = free_.back();
  free_.pop_back();
  return p;
}

void EventPool::release(void* p, std::size_t bytes) {
  NARMA_ASSERT(stats_.live > 0);
  --stats_.live;
  if (bytes > kBlockBytes) {
    ::operator delete(p);
    return;
  }
  free_.push_back(p);
}

// ---------------------------------------------------------- CalendarQueue --

void CalendarQueue::insert(CalEvent ev) {
  if (ev.time < bottom_end_) {
    bottom_.insert(
        bottom_.begin() +
            static_cast<std::ptrdiff_t>(bottom_pos(ev.time, ev.seq)),
        std::move(ev));
    return;
  }
  if (ev.time < cal_end_) {
    buckets_[static_cast<std::size_t>((ev.time - cal_start_) / width_)]
        .push_back(std::move(ev));
    return;
  }
  overflow_.push_back(std::move(ev));
}

std::size_t CalendarQueue::bottom_pos(Time t, std::uint64_t seq) const {
  // bottom_ is sorted descending by (time, seq); scan from the back, where
  // the engine's mostly-monotonic posts land (a new minimum is O(1)).
  const CalEvent key{t, seq, {}};
  std::size_t i = bottom_.size();
  while (i > 0 && key_less(bottom_[i - 1], key)) --i;
  return i;
}

void CalendarQueue::settle() {
  NARMA_ASSERT(size_ > 0);
  while (bottom_.empty()) {
    while (cur_ < buckets_.size() && buckets_[cur_].empty()) ++cur_;
    if (cur_ < buckets_.size()) {
      // Swap the bucket's storage in (capacities circulate, no allocation)
      // and sort it once, descending so pops are move-out pop_backs.
      bottom_.swap(buckets_[cur_]);
      std::sort(bottom_.begin(), bottom_.end(),
                [](const CalEvent& a, const CalEvent& b) {
                  return key_less(b, a);
                });
      ++cur_;
      bottom_end_ = span_end(cal_start_, width_ * static_cast<Time>(cur_));
      continue;  // swapped bucket was nonempty; loop exits
    }
    rebuild();
  }
}

void CalendarQueue::rebuild() {
  // The calendar is drained; re-seed it from overflow_ with a bucket width
  // matched to the observed spread, so each bucket holds roughly a
  // 1/nbuckets slice of the pending events.
  NARMA_ASSERT(!overflow_.empty());
  Time lo = std::numeric_limits<Time>::max();
  Time hi = 0;
  for (const CalEvent& e : overflow_) {
    lo = std::min(lo, e.time);
    hi = std::max(hi, e.time);
  }
  cal_start_ = lo;
  width_ = (hi - lo) / static_cast<Time>(buckets_.size()) + 1;
  cal_end_ = span_end(cal_start_, cal_span());
  bottom_end_ = lo;
  cur_ = 0;
  // Repartition in place; with the width above every event fits below
  // cal_end_, but keep the general form for saturated spans.
  std::size_t keep = 0;
  for (CalEvent& e : overflow_) {
    if (e.time < cal_end_) {
      buckets_[static_cast<std::size_t>((e.time - cal_start_) / width_)]
          .push_back(std::move(e));
    } else {
      overflow_[keep++] = std::move(e);
    }
  }
  overflow_.resize(keep);
}

}  // namespace narma::sim
