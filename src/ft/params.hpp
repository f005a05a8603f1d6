// Fault-tolerance layer parameters and the replay-log record (DESIGN.md
// §15). Kept free of heavy dependencies so app config structs
// (apps/stencil.hpp, apps/tree.hpp) can embed FtParams by value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/time.hpp"

namespace narma::ft {

/// Recovery-protocol knobs, used exactly as the app config carries them
/// (narma_cli maps its --ft* flags onto them). The fail-stop schedule
/// itself lives in net::FaultParams::fail_rate / max_fails because the draw
/// belongs to the seeded fault plan, not to the recovery policy.
struct FtParams {
  /// Master switch: apps build a RecoveryManager and route their notified
  /// puts through it only when set; otherwise no ft code runs and the
  /// schedule is that of the plain driver.
  bool enabled = false;

  /// When false, a failed rank stays down (crash semantics): survivors that
  /// depend on it run into the simulation deadlock detector. Exercised by
  /// the CI no-recover leg.
  bool recover = true;

  /// Checkpoint every this many epochs (app iterations). Epoch 0 (initial
  /// state) is always checkpointed at RecoveryManager construction.
  int ckpt_interval = 4;

  /// Checkpoint partner is (rank + partner_offset) mod nranks; must not be
  /// a multiple of nranks (a rank cannot be its own checkpoint store).
  int partner_offset = 1;

  /// Virtual time a failed rank spends down before it rejoins.
  Time restart = us(50);

  /// Earliest epoch at which the fail plan is consulted; lets a benchmark
  /// pin the failure instant while sweeping the checkpoint interval.
  std::uint64_t min_fail_epoch = 1;

  /// Trim the notification log at each checkpoint (entries from
  /// checkpointed epochs can never be replayed again). Disabling keeps
  /// stale entries around, which the replay dedupe must then reject —
  /// tests use this to exercise the dedupe path.
  bool eager_trim = true;
};

/// Per-rank recovery statistics, surfaced by the apps and mirrored into the
/// obs registry (ft.* series) when metrics are enabled.
struct FtStats {
  std::uint64_t ckpts = 0;           // checkpoints this rank sent
  std::uint64_t ckpt_bytes = 0;      // payload bytes across those
  std::uint64_t fails = 0;           // fail-stops this rank suffered
  std::uint64_t replay_applied = 0;  // log entries applied at rejoin
  std::uint64_t replay_dupes = 0;    // entries rejected by epoch dedupe
  std::uint64_t restored_epoch = 0;  // checkpoint epoch rolled back to
  Time recovery_time = 0;            // fail -> recovered, virtual time
  int victim = -1;                   // last failed rank observed (any rank)
  bool dead = false;                 // no-recover mode: down for good
};

/// One logged notified put, as the victim of a fail-stop receives it for
/// replay. `seq` increases strictly per (sender, destination) pair — the
/// replay dedupe key the receiver checks monotonicity of — and `epoch` is
/// the epoch the notification belongs to (the boundary it precedes). The
/// payload is a view into the received replay blob, valid for the duration
/// of the replay (senders keep their logs in the serialized wire format,
/// RecoveryManager::serialize_log, so logging a put allocates nothing).
struct ReplayEntry {
  std::int32_t src_rank = -1;  // filled in by the receiver, not serialized
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint32_t win_idx = 0;     // index into the protected-window list
  std::int32_t tag = 0;
  std::uint64_t disp_bytes = 0;  // byte offset into the target window
  std::span<const std::byte> payload;
};

}  // namespace narma::ft
