// Notified Access parameters.
//
// The call-overhead defaults are the paper's measured model constants
// (Sec. V-A): t_init = 0.07us, t_free = 0.04us, t_start = 0.008us,
// t_na = 0.29us, o_r = 0.07us. They are parameters, not constants, so the
// overhead microbenchmark can recover them and ablations can vary them.
#pragma once

#include <cstddef>

#include "common/time.hpp"
#include "net/types.hpp"

namespace narma::na {

constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

/// Matching predicate of a notification request or probe: a <source, tag>
/// pair where either side may be a wildcard. This is the public vocabulary
/// type of the matching API (notify_init / iprobe / probe).
struct MatchSpec {
  int source = kAnySource;
  int tag = kAnyTag;

  constexpr bool any_source() const { return source == kAnySource; }
  constexpr bool any_tag() const { return tag == kAnyTag; }
  /// Fully wildcard spec (matches every notification on the window).
  static constexpr MatchSpec any() { return {}; }

  friend constexpr bool operator==(const MatchSpec&,
                                   const MatchSpec&) = default;
};

/// Matching-engine selection. kIndexed is the production engine: hashed
/// per-shape FIFO lists (exact <window, source, tag> plus the wildcard
/// shapes) over an arrival-ordered store, preserving FIFO arrival-order
/// semantics — O(1) per match regardless of unexpected-queue depth. kLinear is the original
/// arrival-order scan, kept for ablation (bench/ablation_matching.cpp).
enum class Matcher : std::uint8_t { kLinear, kIndexed };

struct NaParams {
  Time t_init = ns(70);   // MPI_Notify_init
  Time t_free = ns(40);   // MPI_Request_free
  Time t_start = ns(8);   // MPI_Start (reset matched counter)
  Time t_na = ns(290);    // issuing a put/get_notify (send overhead o_s)
  Time o_r = ns(70);      // receive overhead for a completing test/wait
  Time uq_scan = ns(4);   // per unexpected-queue entry scanned (linear matcher)
  Time cq_poll = ns(12);  // per hardware completion-queue poll
  /// Indexed-matcher costs: one hash-bucket probe per test/probe that finds
  /// the UQ non-empty, one insert per notification parked in the index, and
  /// an amortized per-entry cost for CQ entries drained after the first in
  /// a batch (pop_hw_batch).
  Time uq_index_lookup = ns(6);
  Time uq_index_insert = ns(6);
  Time cq_poll_batch = ns(3);

  /// Matching engine (ablation knob; kLinear restores the original scan).
  Matcher matcher = Matcher::kIndexed;

  /// Max hardware notifications drained per poll batch by the indexed
  /// matcher, in [1, NaEngine::kMaxHwDrainBatch] (the engine rejects any
  /// other value; the linear matcher always drains one at a time, as the
  /// original engine did).
  std::size_t hw_drain_batch = 16;
  Time inline_commit = ns(15);  // committing an inline shm payload
  /// Consuming a non-inline shm notification: the matching rank must fetch
  /// the remotely written first line and check the store fence — the cost
  /// the inline transfer avoids (paper Sec. IV-C).
  Time shm_noninline_commit = ns(35);

  /// When false, intra-node notified puts use the put + notification path
  /// even for payloads that fit a shared-memory notification entry
  /// (net::kShmInlineCapacity bytes; ablation knob).
  bool enable_shm_inline = true;
};

/// Completion information of the *last* matching notified access (the paper:
/// "the returned MPI status object includes the information of only the
/// last matching notified access").
struct NaStatus {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

}  // namespace narma::na
