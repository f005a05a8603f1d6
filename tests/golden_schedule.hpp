// Shared randomized-schedule harness for the transport-backend bit-identity
// property test (tests/test_transport_backends.cpp).
//
// schedule_hash(seed) runs one seeded producer/consumer workload — random
// rank count, node layout, matcher, payload sizes straddling every lane
// threshold, a mix of put/get/fetch-add notifications plus plain RMA — and
// folds every rank's final virtual time and the fabric's wire counters into
// a single 64-bit hash. Everything that feeds the hash is virtual-time
// deterministic, so the fold over many seeds pins the simulator's timing
// behavior down to the bit.
//
// kGoldenScheduleHash below was generated from the pre-TransportBackend
// tree (PR 5 head, commit 9ca08a6) over seeds 1..kGoldenScheduleCount. The
// backend refactor must reproduce it exactly: the default Aries backend is
// required to be bit-identical to the hard-coded fabric it replaced.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/world.hpp"

namespace narma::golden {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// Observability override for the metrics property tests. kNone leaves the
/// seeded draw alone (the golden-hash configuration); kMetricsOn forces the
/// registry on *after* the draw, so the RNG consumes the same values and
/// every virtual time is identical either way.
enum class ObsOverride { kNone, kMetricsOn };

/// One randomized schedule: ranks 1..n-1 produce notified accesses into
/// rank 0's window; rank 0 consumes them all with a wildcard counting
/// request. Returns the FNV fold of per-rank finish times and counters.
/// `inspect` runs on the finished world before it is torn down.
template <class Inspect>
inline std::uint64_t schedule_hash_with(std::uint64_t seed, ObsOverride ov,
                                        Inspect&& inspect) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);

  const int nranks = 2 + static_cast<int>(rng.next_below(4));  // 2..5
  static constexpr int kRpn[] = {1, 2, 4};
  WorldParams wp;
  wp.fabric.ranks_per_node = kRpn[rng.next_below(3)];
  // NOTE: pre-refactor this knob was wp.fabric.fma_bte_threshold; the
  // per-backend parameter split moved it into the Aries block. The value —
  // and therefore every virtual time — is unchanged.
  wp.fabric.aries.fma_bte_threshold = rng.next_below(2) ? 4096 : 1024;
  wp.na.matcher = rng.next_below(3) ? na::Matcher::kIndexed
                                    : na::Matcher::kLinear;
  wp.na.enable_shm_inline = rng.next_below(4) != 0;
  wp.obs.metrics = rng.next_below(2) != 0;
  if (ov == ObsOverride::kMetricsOn) wp.obs.metrics = true;

  // Per-producer op plans, drawn up front so rank fibers never share RNG
  // state. kind: 0 = put_notify, 1 = get_notify, 2 = fetch_add_notify.
  struct Op {
    int kind;
    std::uint32_t bytes;
    int tag;
    std::uint64_t disp;
  };
  constexpr std::size_t kWinBytes = 1 << 16;
  std::vector<std::vector<Op>> plan(static_cast<std::size_t>(nranks));
  int total = 0;
  for (int p = 1; p < nranks; ++p) {
    const int k = 1 + static_cast<int>(rng.next_below(6));
    for (int m = 0; m < k; ++m) {
      Op op;
      op.kind = static_cast<int>(rng.next_below(3));
      static constexpr std::uint32_t kSizes[] = {0,  1,   8,    32,  64,
                                                 96, 512, 2048, 4096, 8192};
      op.bytes = op.kind == 2 ? 8 : kSizes[rng.next_below(10)];
      op.tag = static_cast<int>(rng.next_below(16));
      op.disp = 8 * rng.next_below((kWinBytes - 8192) / 8);
      plan[static_cast<std::size_t>(p)].push_back(op);
      ++total;
    }
  }

  World world(nranks, wp);
  std::uint64_t hash = kFnvOffset;
  world.run([&](Rank& self) {
    auto win = self.win_allocate(kWinBytes, 1);
    if (self.id() != 0) {
      std::vector<std::byte> buf(8192, std::byte{0x5a});
      std::int64_t scratch = 0;
      for (const Op& op : plan[static_cast<std::size_t>(self.id())]) {
        switch (op.kind) {
          case 0:
            self.na().put_notify(*win, {buf.data(), op.bytes}, 0, op.disp,
                                 op.tag);
            break;
          case 1:
            self.na().get_notify(*win, {buf.data(), op.bytes}, 0, op.disp,
                                 op.tag);
            break;
          default:
            self.na().fetch_add_notify_i64(*win, 0, op.disp, 3, &scratch,
                                           op.tag);
            break;
        }
        win->flush(0);
      }
    } else if (total > 0) {
      auto req = self.na().notify_init(*win, na::MatchSpec::any(),
                                       static_cast<std::uint32_t>(total));
      self.na().start(req);
      self.na().wait(req);
    }
    self.barrier();
  });

  for (int r = 0; r < nranks; ++r)
    hash = fnv_fold(hash, static_cast<std::uint64_t>(
                              world.engine().rank(r).now()));
  const net::FabricCounters& fc = world.fabric().counters();
  hash = fnv_fold(hash, fc.data_transfers);
  hash = fnv_fold(hash, fc.ctrl_transfers);
  hash = fnv_fold(hash, fc.responses);
  hash = fnv_fold(hash, fc.acks);
  hash = fnv_fold(hash, fc.notifications);
  hash = fnv_fold(hash, fc.bytes_on_wire);
  inspect(world);
  return hash;
}

inline std::uint64_t schedule_hash(std::uint64_t seed) {
  return schedule_hash_with(seed, ObsOverride::kNone, [](World&) {});
}

inline constexpr std::uint64_t kGoldenScheduleCount = 1000;

/// Fold of schedule_hash over seeds 1..n (the committed golden value below
/// was produced with n = kGoldenScheduleCount on the pre-refactor tree).
inline std::uint64_t all_schedules_hash(std::uint64_t n) {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t s = 1; s <= n; ++s) h = fnv_fold(h, schedule_hash(s));
  return h;
}

/// Generated from the pre-TransportBackend tree; see file comment. The
/// short fold (seeds 1..100) exists so Debug/sanitizer builds can assert
/// bit-identity without paying for the full thousand.
inline constexpr std::uint64_t kGoldenScheduleHash = 0x30db7fcc5f99eca0ull;
inline constexpr std::uint64_t kGoldenScheduleCountShort = 100;
inline constexpr std::uint64_t kGoldenScheduleHashShort =
    0x3acdd9c56ae77b70ull;

}  // namespace narma::golden
