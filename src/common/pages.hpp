// Page-granular memory helpers.
#pragma once

#include <cstddef>

namespace narma {

/// The host's page size in bytes.
std::size_t page_size();

/// `bytes` rounded up to a whole number of pages.
std::size_t round_up_to_pages(std::size_t bytes);

/// Maps in, writable, the whole pages inside [begin, end) of private
/// anonymous memory in one call (MADV_POPULATE_WRITE), so later writes to
/// them take no page fault. Partial pages at either end are left alone.
/// Returns false where the kernel or the C library lacks the call (Linux
/// before 5.14); the pages then fault in on first write, as without it.
bool commit_pages(void* begin, void* end);

/// The size and alignment of a transparent huge page (x86-64, arm64 with
/// 4 KiB base pages).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Private anonymous memory, zeroed, starting on a 2 MiB boundary, whose
/// first `dense_bytes` the owner will write in full. Those are mapped in
/// at once (commit_pages), on huge pages where the kernel gives them: the
/// whole 2 MiB pages inside the dense range get MADV_HUGEPAGE, everything
/// after them MADV_NOHUGEPAGE, so the rest still faults in 4 KiB at a time
/// and a page nobody writes is never mapped. Where transparent huge pages
/// are off or a call is refused, the dense range is on 4 KiB pages, still
/// mapped in at once (or on first write, as commit_pages says). Unmapped
/// on destruction.
class PageRegion {
 public:
  PageRegion(std::size_t bytes, std::size_t dense_bytes);
  ~PageRegion();
  PageRegion(const PageRegion&) = delete;
  PageRegion& operator=(const PageRegion&) = delete;

  void* data() const { return data_; }
  /// `bytes` rounded up to whole pages.
  std::size_t size() const { return size_; }
  /// Bytes from data() that the kernel accepted MADV_HUGEPAGE for: the
  /// dense range rounded down to 2 MiB, or 0.
  std::size_t huge_bytes() const { return huge_bytes_; }

 private:
  char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t huge_bytes_ = 0;
};

}  // namespace narma
