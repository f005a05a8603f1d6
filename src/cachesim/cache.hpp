// Set-associative LRU cache model.
//
// The paper (Sec. V) argues Notified Access costs at most *two compulsory
// cache misses* at the target per matched notification (the 32-byte request
// structure and the unexpected-queue head) when fewer than four notifications
// are active. We verify that claim by routing the matching engine's metadata
// accesses through this model and counting misses — the same methodology,
// with the cache made explicit instead of using hardware counters.
//
// The model is a classic set-associative cache with LRU replacement over
// byte addresses; an access spanning multiple lines touches each line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace narma::cachesim {

struct CacheStats {
  std::uint64_t accesses = 0;  // line-granular accesses
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class Cache {
 public:
  /// line_size and num_sets must be powers of two.
  Cache(std::size_t line_size, std::size_t num_sets, std::size_t ways);

  /// Records an access to [addr, addr+bytes). Returns the number of misses
  /// this access caused (0 .. number of lines spanned).
  std::uint64_t touch(std::uint64_t addr, std::size_t bytes);

  /// Convenience for touching an object in the host address space.
  template <class T>
  std::uint64_t touch_object(const T* obj) {
    return touch(reinterpret_cast<std::uint64_t>(obj), sizeof(T));
  }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  /// Empties the cache (cold start) without clearing statistics.
  void invalidate_all();

  std::size_t line_size() const { return line_size_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // last-use stamp; 0 = invalid
  };

  bool access_line(std::uint64_t line_addr);

  std::size_t line_size_;
  std::size_t num_sets_;
  std::size_t ways_;
  std::uint64_t stamp_ = 0;
  std::vector<Way> sets_;  // num_sets_ * ways_, row-major by set
  CacheStats stats_;
};

/// Reference default roughly matching a per-core L1D: 64B lines, 64 sets,
/// 8 ways = 32 KiB.
Cache make_l1d();

}  // namespace narma::cachesim
