// Bounded ring buffer with lazily grown storage.
//
// Used for the shared-memory notification queue (paper Sec. IV-C: "a bounded
// ring buffer for notifications") and for eager-message staging. Capacity is
// rounded up to a power of two so index masking replaces modulo.
//
// The *logical* capacity — what full() enforces and capacity() reports, and
// what the flow-control layer sizes its credit pools to — is fixed at
// construction. The *physical* storage starts at a few dozen slots and
// doubles as the queue actually deepens: a simulated NIC carries three rings
// sized for worst-case bursts (~16k slots each), which at 4096 ranks would
// eagerly allocate tens of gigabytes while typical steady-state depth is
// single digits. Growth preserves logical order (elements are re-placed by
// their monotonic indices) and never changes any push/pop/full outcome, so
// virtual-time behavior is identical to the eager layout.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace narma {

template <class T>
class RingBuffer {
 public:
  /// Physical slots allocated up front (grown on demand toward capacity).
  static constexpr std::size_t kInitialSlots = 64;

  explicit RingBuffer(std::size_t capacity) {
    cap_ = 1;
    while (cap_ < capacity) cap_ <<= 1;
    const std::size_t phys = cap_ < kInitialSlots ? cap_ : kInitialSlots;
    slots_.resize(phys);
    mask_ = phys - 1;
  }

  bool empty() const { return head_ == tail_; }
  bool full() const { return tail_ - head_ == cap_; }
  std::size_t size() const { return tail_ - head_; }
  std::size_t capacity() const { return cap_; }

  /// Returns false when the buffer is full (caller decides whether a full
  /// queue is backpressure or a fatal protocol error).
  bool try_push(T v) {
    if (full()) return false;
    if (tail_ - head_ == slots_.size()) grow();
    slots_[tail_ & mask_] = std::move(v);
    ++tail_;
    return true;
  }

  void push(T v) { NARMA_CHECK(try_push(std::move(v))) << "ring overflow"; }

  T pop() {
    NARMA_CHECK(!empty());
    T v = std::move(slots_[head_ & mask_]);
    ++head_;
    return v;
  }

  const T& front() const {
    NARMA_CHECK(!empty());
    return slots_[head_ & mask_];
  }

  /// Slot of the oldest element in a ring of capacity() slots (the
  /// logical layout, independent of how much storage has been grown).
  std::size_t front_slot() const { return head_ & (cap_ - 1); }

  /// Element i positions from the head (0 = oldest).
  const T& peek(std::size_t i) const {
    NARMA_CHECK(i < size());
    return slots_[(head_ + i) & mask_];
  }

  void clear() { head_ = tail_ = 0; }

 private:
  void grow() {
    // Double the physical slots and re-place live elements by their
    // monotonic indices under the new mask; head_/tail_ are untouched, so
    // the logical contents and order are exactly preserved.
    std::vector<T> next(slots_.size() * 2);
    const std::size_t nmask = next.size() - 1;
    for (std::size_t i = head_; i != tail_; ++i)
      next[i & nmask] = std::move(slots_[i & mask_]);
    slots_ = std::move(next);
    mask_ = nmask;
  }

  std::vector<T> slots_;
  std::size_t cap_ = 0;   // logical capacity (power of two)
  std::size_t mask_ = 0;  // physical-slot mask (slots_.size() - 1)
  std::size_t head_ = 0;  // monotonically increasing; masked on access
  std::size_t tail_ = 0;
};

}  // namespace narma
