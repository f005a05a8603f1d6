// Pipelined stencil (paper Sec. VI-A): a port of the Intel Parallel Research
// Kernels Sync_p2p benchmark.
//
// A rows x total_cols grid is split into contiguous column blocks, one per
// rank. The update A(i,j) = A(i-1,j) + A(i,j-1) - A(i-1,j-1) sweeps row by
// row; each row, a rank needs one boundary value from its left neighbor and
// forwards one to its right neighbor, forming a software pipeline. After the
// last row, the last rank feeds the negated corner value back to rank 0.
//
// With boundary conditions A(0,j) = j and A(i,0) = i the recurrence
// telescopes to A(i,j) = A(i,0) + A(0,j) - A(0,0), so after k iterations of
// the negative feedback the corner holds k * (rows + total_cols - 2) — the
// analytic verification value.
//
// Variants (the paper's Figs. 1 and 4b):
//  * kMessagePassing — send/recv of one double per row.
//  * kFence          — one-sided puts separated by collective fences; the
//                      pipeline degrades to a bulk-synchronous wavefront.
//  * kPscw           — general active target; per-row post/start/complete/
//                      wait between neighbor pairs only.
//  * kNotified       — put_notify into the neighbor's ghost cell, matched
//                      by a persistent counting notification per row.
#pragma once

#include "core/world.hpp"
#include "ft/params.hpp"

namespace narma::apps {

enum class StencilVariant { kMessagePassing, kFence, kPscw, kNotified };

inline const char* to_string(StencilVariant v) {
  switch (v) {
    case StencilVariant::kMessagePassing: return "MsgPassing";
    case StencilVariant::kFence: return "OS-Fence";
    case StencilVariant::kPscw: return "OS-PSCW";
    case StencilVariant::kNotified: return "NotifiedAccess";
  }
  return "?";
}

struct StencilConfig {
  int rows = 128;        // pipelined dimension (one message per row)
  int total_cols = 256;  // split across ranks
  int iters = 2;
  StencilVariant variant = StencilVariant::kNotified;
  /// Virtual compute cost charged per point update. The update itself
  /// always runs for verification; virtual time never depends on how long
  /// it takes on the host.
  Time per_point = ns(2);
  /// Fault-tolerant execution (DESIGN.md §15). When ft.enabled the notified
  /// puts go through a ft::RecoveryManager — kNotified variant only — with
  /// one recovery epoch per iteration; otherwise this field is inert.
  ft::FtParams ft;
};

struct StencilResult {
  double corner = 0;           // computed corner value (valid on rank 0)
  double expected_corner = 0;  // analytic verification value
  Time elapsed = 0;            // virtual time, max over ranks
  double gmops = 0;            // billions of point updates per second
  bool verified = false;       // corner matches on rank 0
  ft::FtStats ft;              // this rank's recovery stats (ft runs only)
};

/// Collective: every rank calls it; the returned timing is the allreduced
/// maximum, the corner fields are valid on rank 0.
StencilResult run_stencil(Rank& self, const StencilConfig& cfg);

}  // namespace narma::apps
