// Counting global operator new/delete for allocation-accounting tests.
//
// Replaces the global allocation functions, so include this header from
// exactly one translation unit per test executable (every test here is a
// single-file executable, so the replacement never leaks into another
// suite). allocs_now() reads the running allocation count; a test warms the
// containers on its hot path, then asserts a zero delta over the measured
// rounds.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

// GCC infers malloc-like attributes for the replaced operator new below and
// then flags every inlined delete against it; the pairing is correct (free
// handles both malloc and aligned_alloc memory on this platform).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace narma::test {

inline std::atomic<std::uint64_t> g_allocs{0};
inline std::atomic<std::uint64_t> g_frees{0};

inline std::uint64_t allocs_now() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace narma::test

// std::malloc/free keep usable_size semantics out of the picture; alignment
// overloads forward so over-aligned types stay correct.
void* operator new(std::size_t n) {
  narma::test::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  narma::test::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) /
                                       static_cast<std::size_t>(al) *
                                       static_cast<std::size_t>(al)))
    return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p) narma::test::g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  if (p) narma::test::g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t al) noexcept {
  ::operator delete(p, al);
}
