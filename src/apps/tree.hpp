// Hierarchical tree computation (paper Sec. VI-B): a k-ary (default 16-ary)
// reduction tree rooted at rank 0, representing fan-in patterns of FMM,
// Barnes-Hut, or hierarchical matrix computations.
//
// Variants (Fig. 4c):
//  * kMessagePassing — children send partial sums; parents recv and combine.
//  * kPscw           — children put partial sums into per-child slots of the
//                      parent's window under PSCW sync.
//  * kNotified       — same data movement, but parents use a single counting
//                      notification request (expected = #children, any
//                      source) — the paper's counting feature.
//  * kVendorReduce   — the tuned binomial MPI_Reduce baseline.
#pragma once

#include "core/world.hpp"
#include "ft/params.hpp"

namespace narma::apps {

enum class TreeVariant { kMessagePassing, kPscw, kNotified, kVendorReduce };

inline const char* to_string(TreeVariant v) {
  switch (v) {
    case TreeVariant::kMessagePassing: return "MsgPassing";
    case TreeVariant::kPscw: return "OS-PSCW";
    case TreeVariant::kNotified: return "NotifiedAccess";
    case TreeVariant::kVendorReduce: return "VendorReduce";
  }
  return "?";
}

struct TreeConfig {
  std::size_t elems = 1;  // doubles per contribution
  int arity = 16;
  int reps = 1;  // back-to-back reductions (timed together)
  TreeVariant variant = TreeVariant::kNotified;
  /// Fault-tolerant execution (DESIGN.md §15): the notified puts go through
  /// a ft::RecoveryManager, one recovery epoch per repetition, kNotified
  /// variant only. Inert when disabled.
  ft::FtParams ft;
};

struct TreeResult {
  Time elapsed = 0;       // virtual time for `reps` reductions, max over ranks
  double per_op_us = 0;   // average virtual microseconds per reduction
  bool verified = false;  // root checked the analytic sum
  double result0 = 0;     // first element of the final sum (root only)
  ft::FtStats ft;         // this rank's recovery stats (ft runs only)
};

/// Collective. Rank r contributes the vector (r+1, r+1, ...); the root's
/// result element is p*(p+1)/2 for p ranks.
TreeResult run_tree(Rank& self, const TreeConfig& cfg);

}  // namespace narma::apps
