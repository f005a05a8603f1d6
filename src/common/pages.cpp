#include "common/pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

namespace narma {

std::size_t page_size() {
  static const std::size_t p =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return p;
}

std::size_t round_up_to_pages(std::size_t bytes) {
  const std::size_t p = page_size();
  return (bytes + p - 1) / p * p;
}

bool commit_pages(void* begin, void* end) {
#if defined(MADV_POPULATE_WRITE)
  const std::uintptr_t p = page_size();
  const auto first = reinterpret_cast<std::uintptr_t>(begin);
  const std::uintptr_t lo = (first + p - 1) / p * p;
  const std::uintptr_t hi = reinterpret_cast<std::uintptr_t>(end) / p * p;
  if (hi <= lo) return true;
  return madvise(reinterpret_cast<void*>(lo), hi - lo,
                 MADV_POPULATE_WRITE) == 0;
#else
  (void)begin;
  (void)end;
  return false;
#endif
}

}  // namespace narma
