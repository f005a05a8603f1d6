// Rank fail/rejoin recovery on notified accesses (DESIGN.md §15).
//
// The protocol is the in-memory partner-checkpoint + message-logging scheme
// of Besta & Hoefler's RMA fault-tolerance work, rebuilt on this codebase's
// notified puts:
//
//  * Checkpoints. Every rank owns a *store window* sized to hold its
//    store partner's protected regions. On a configurable epoch cadence
//    each rank streams its registered rma::Window regions into its
//    partner's store window with put_notify (tag kCkptTag) and blocks on
//    the matching counting notification for the checkpoint that lands in
//    its own store — the paper's producer-consumer primitive doing double
//    duty as the resilience primitive.
//
//  * Notification log. Application notified puts routed through
//    RecoveryManager::put_notify are recorded sender-side (epoch, a
//    per-destination strictly-increasing seq, window index, tag, byte
//    offset, payload) before being forwarded to the NA engine, appended to
//    one byte buffer per destination in the replay wire format. The log is
//    bounded and trimmed at checkpoints: entries from checkpointed epochs
//    can never be replayed.
//
//  * Fail/rejoin. At each epoch boundary (end_epoch) all ranks evaluate the
//    seeded fail plan (FaultInjector::fail_draw — a pure hash, so survivors
//    agree on the victim without communication: a perfect failure
//    detector). The victim marks its channels down (deliveries dead-drop
//    instead of aborting), wipes its protected windows, sleeps the restart
//    time, restores from its partner's store, then *announces* its restored
//    epoch to every peer; only on that announcement do peers ship their
//    logged entries (one serialized blob each), which keeps post-outage
//    traffic from racing the rank's up-transition. The victim dedupes on
//    (epoch <= restored, per-peer seq monotonicity) and hands each lost
//    epoch's entries to an app recompute callback, which replays the
//    arrivals and recomputes local state — without resending its own
//    outputs, which the survivors already received.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/world.hpp"
#include "ft/params.hpp"

namespace narma::ft {

class RecoveryManager {
 public:
  /// NA tag of checkpoint puts into store windows.
  static constexpr int kCkptTag = 11;
  /// Mailbox tags of the rejoin control plane.
  static constexpr int kAnnounceTag = 1001;
  static constexpr int kLogCountTag = 1002;
  static constexpr int kLogDataTag = 1003;
  /// Upper bound on logged-but-untrimmed notifications per rank; exceeding
  /// it is fatal (the log is the recovery guarantee, silently dropping
  /// entries would corrupt a future replay).
  static constexpr std::size_t kLogCapacity = 4096;

  /// Entries of one lost epoch, sorted by (source rank, seq), as handed to
  /// the recompute callback. Their payload views last only for the call.
  using RecomputeFn =
      std::function<void(std::uint64_t epoch, std::span<const ReplayEntry>)>;

  /// Collective: every rank constructs with its own protected windows (same
  /// count and order across ranks is not required, but the set must be
  /// fixed for the manager's lifetime). Takes the epoch-0 checkpoint.
  RecoveryManager(Rank& self, const FtParams& params,
                  std::vector<rma::Window*> protect);
  ~RecoveryManager();
  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Installs the app's lost-epoch replay routine. Without one, entries are
  /// applied in (source, seq) order with no local recompute — enough for
  /// apps whose windows only ever receive remote data.
  void set_recompute(RecomputeFn fn) { recompute_ = std::move(fn); }

  /// Logged notified put: records the entry for replay, then forwards to
  /// the NA engine. `win_idx` indexes the protected-window list; `disp` is
  /// in the window's disp units, like na::NaEngine::put_notify.
  void put_notify(std::size_t win_idx, std::span<const std::byte> src,
                  int target, std::uint64_t target_disp, int tag);

  /// Epoch boundary: barrier, fail-plan evaluation (recovery runs here when
  /// a rank fails), then a checkpoint when the cadence is due. Returns
  /// false only in no-recover mode on the failed rank, which is then dead:
  /// its channels stay down and the caller must unwind.
  bool end_epoch();

  /// Applies one replayed entry into its protected window (bounds-checked
  /// memcpy). Recompute callbacks use this for the entries they accept.
  void apply(const ReplayEntry& e);

  /// Wire image of the log held for destination `dst`, exactly what a
  /// survivor ships to `dst` when it rejoins. Per entry, five native-endian
  /// u64s — epoch, seq, tag << 32 | win_idx, disp_bytes, payload length —
  /// then the payload bytes. Valid until the next put_notify or end_epoch.
  std::span<const std::byte> serialize_log(int dst) const {
    return log_[static_cast<std::size_t>(dst)].wire;
  }

  std::uint64_t epoch() const { return epoch_; }
  int partner() const { return partner_; }
  const FtStats& stats() const { return stats_; }

 private:
  void checkpoint();
  void run_recovery(int victim);
  void restore_from_partner();

  /// The log of notified puts to one destination, kept in serialize_log's
  /// wire format. Appends and the checkpoint trim (a prefix drop: epochs
  /// are monotone within a log) reuse the buffer's capacity, so logging
  /// allocates nothing in steady state.
  struct DstLog {
    std::vector<std::byte> wire;
    std::size_t entries = 0;
    std::uint64_t seq = 0;  // last seq issued to this destination
  };

  Rank& self_;
  FtParams params_;
  std::vector<rma::Window*> protect_;
  RecomputeFn recompute_;

  int partner_ = -1;     // my checkpoints go to this rank's store window
  int store_rank_ = -1;  // whose checkpoints my store window holds
  std::vector<std::byte> store_buf_;
  std::unique_ptr<rma::Window> store_win_;
  std::uint32_t store_regions_ = 0;  // store_rank_'s protected-region count
  na::NotifyRequest req_ckpt_;

  std::uint64_t epoch_ = 0;
  std::uint64_t last_ckpt_epoch_ = 0;
  int fails_done_ = 0;
  std::size_t log_entries_ = 0;  // across all destinations
  std::vector<DstLog> log_;      // per destination rank

  FtStats stats_;
  obs::Counter m_ckpts_, m_ckpt_bytes_, m_fails_, m_applied_, m_dupes_;
  obs::Gauge m_recovery_ps_;
};

}  // namespace narma::ft
