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

}  // namespace narma
