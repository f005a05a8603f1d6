#include "common/pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

#include "common/assert.hpp"

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

PageRegion::PageRegion(std::size_t bytes, std::size_t dense_bytes)
    : size_(round_up_to_pages(bytes)) {
  NARMA_CHECK(dense_bytes <= bytes && size_ > 0)
      << "page region of " << bytes << " bytes, " << dense_bytes << " dense";
  // Map one huge page more than needed and trim both ends, so the region
  // starts on a 2 MiB boundary and its huge pages begin at data_.
  const std::size_t span = size_ + kHugePageBytes;
  void* map = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  NARMA_CHECK(map != MAP_FAILED)
      << "out of memory mapping a " << bytes << "-byte region";
  const auto lo = reinterpret_cast<std::uintptr_t>(map);
  const std::uintptr_t start =
      (lo + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
  const std::size_t head = start - lo;
  const std::size_t tail = span - head - size_;
  if (head > 0) munmap(map, head);
  if (tail > 0) munmap(reinterpret_cast<char*>(start) + size_, tail);
  data_ = reinterpret_cast<char*>(start);

#if defined(MADV_HUGEPAGE) && defined(MADV_NOHUGEPAGE)
  const std::size_t huge = dense_bytes / kHugePageBytes * kHugePageBytes;
  if (huge > 0 && madvise(data_, huge, MADV_HUGEPAGE) == 0) huge_bytes_ = huge;
  // Where THP is "always", a fault past the dense range would otherwise map
  // a whole 2 MiB page; a refusal leaves that as it is.
  madvise(data_ + huge_bytes_, size_ - huge_bytes_, MADV_NOHUGEPAGE);
#endif
  commit_pages(data_, data_ + dense_bytes);
}

PageRegion::~PageRegion() { munmap(data_, size_); }

}  // namespace narma
