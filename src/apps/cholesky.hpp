// Task-based tiled Cholesky factorization (paper Sec. VI-C).
//
// Left-looking tile algorithm (Kurzak et al.) with a static 1D-cyclic
// distribution of tile columns; the owner of column j executes all tasks
// producing column j (SYRK/GEMM updates, POTRF, TRSMs). Produced panel
// tiles L(i,k), i > k, are broadcast along a binary-tree overlay rooted at
// the producer: as soon as a rank receives a tile it forwards it to its two
// overlay children — the paper's dataflow pattern, where "nodes generally
// cannot know what update they receive next".
//
// The three variants differ only in how a receiving rank learns which tile
// arrived (the producer-consumer synchronization under test, Fig. 5):
//
//  * kMessagePassing — the tile coordinate rides in the tag; the receiver
//    does probe(any, any), decodes the tag, then recv's into the right slot.
//  * kOneSided — the producer puts the tile, reserves a ring-buffer slot at
//    the target with fetch_and_op, flushes, then puts the coordinate into
//    the ring (the paper's code excerpt); the receiver polls the ring.
//  * kNotified — put_notify with the coordinate as tag; the receiver waits
//    on a persistent <any source, any tag> request and reads the
//    coordinate from the returned status.
#pragma once

#include "core/world.hpp"

namespace narma::apps {

enum class CholeskyVariant { kMessagePassing, kOneSided, kNotified };

inline const char* to_string(CholeskyVariant v) {
  switch (v) {
    case CholeskyVariant::kMessagePassing: return "MsgPassing";
    case CholeskyVariant::kOneSided: return "OneSided";
    case CholeskyVariant::kNotified: return "NotifiedAccess";
  }
  return "?";
}

struct CholeskyConfig {
  int nt = 8;          // tile columns/rows (nt x nt tiles, lower triangle)
  int b = 32;          // tile dimension (32x32 doubles = 8 KB transfers)
  std::uint64_t seed = 42;
  CholeskyVariant variant = CholeskyVariant::kNotified;
  bool verify = true;  // check || A - LL^T || on each column's owner
  /// Modeled kernel rate in GFlop/s, > 0: tile kernels are charged
  /// flops/model_gflops of virtual time (they still execute for
  /// verification), so virtual time does not depend on the host.
  double model_gflops = 10;
};

/// Every field holds the same value on every rank.
struct CholeskyResult {
  Time elapsed = 0;       // virtual time, max over ranks
  double gflops = 0;      // (n^3 / 3) / elapsed
  double residual = -1;   // || A - LL^T ||_F / || A ||_F (if verify)
  bool verified = false;  // residual below tolerance
};

/// Collective. Requires nt*nt below the tag-encoding limit (checked).
CholeskyResult run_cholesky(Rank& self, const CholeskyConfig& cfg);

}  // namespace narma::apps
