#include "ft/recovery.hpp"

#include <algorithm>
#include <cstring>

#include "obs/journal.hpp"

namespace narma::ft {

namespace {

/// Wire size of one serialized ReplayEntry minus its payload: epoch, seq,
/// packed (tag << 32 | win_idx), disp_bytes, payload length — five u64s.
constexpr std::size_t kEntryHeaderBytes = 40;

std::uint64_t load64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

RecoveryManager::RecoveryManager(Rank& self, const FtParams& params,
                                 std::vector<rma::Window*> protect)
    : self_(self), params_(params), protect_(std::move(protect)) {
  const int n = self_.size();
  const int r = self_.id();
  NARMA_CHECK(n >= 2) << "ft: recovery needs at least 2 ranks";
  NARMA_CHECK(!protect_.empty()) << "ft: no protected windows";
  NARMA_CHECK(params_.ckpt_interval >= 1)
      << "ft: FtParams::ckpt_interval must be >= 1";
  NARMA_CHECK(params_.partner_offset % n != 0)
      << "ft: partner_offset " << params_.partner_offset
      << " maps every rank onto itself at " << n << " ranks";

  const int off = ((params_.partner_offset % n) + n) % n;
  partner_ = (r + off) % n;
  store_rank_ = (r - off + n) % n;

  // Exchange protected-region shapes: each rank sizes its store window for
  // the partner whose checkpoints it holds and arms the matching
  // notification count.
  struct Shape {
    std::uint64_t bytes = 0;
    std::uint64_t regions = 0;
  };
  Shape mine{0, static_cast<std::uint64_t>(protect_.size())};
  for (rma::Window* w : protect_) mine.bytes += w->bytes();
  std::vector<Shape> shapes(static_cast<std::size_t>(n));
  mp::allgather(self_.mp(), &mine, sizeof mine, shapes.data());

  const Shape& held = shapes[static_cast<std::size_t>(store_rank_)];
  store_regions_ = static_cast<std::uint32_t>(held.regions);
  store_buf_.resize(held.bytes ? held.bytes : 1);
  store_win_ = self_.rma().create(store_buf_.data(), store_buf_.size(), 1);
  req_ckpt_ = self_.na().notify_init(
      *store_win_, na::MatchSpec{store_rank_, kCkptTag}, store_regions_);

  log_.resize(static_cast<std::size_t>(n));

  if (obs::Registry* m = self_.world().metrics()) {
    m_ckpts_ = m->counter("ft.ckpts", r);
    m_ckpt_bytes_ = m->counter("ft.ckpt_bytes", r);
    m_fails_ = m->counter("ft.fails", r);
    m_applied_ = m->counter("ft.replay_applied", r);
    m_dupes_ = m->counter("ft.replay_dupes", r);
    m_recovery_ps_ = m->gauge("ft.recovery_ps", r);
  }

  // Epoch-0 checkpoint: the initial state must be restorable before the
  // first failure can fire.
  checkpoint();
}

RecoveryManager::~RecoveryManager() = default;

void RecoveryManager::put_notify(std::size_t win_idx,
                                 std::span<const std::byte> src, int target,
                                 std::uint64_t target_disp, int tag) {
  NARMA_CHECK(win_idx < protect_.size())
      << "ft: bad protected-window index " << win_idx;
  rma::Window& w = *protect_[win_idx];
  NARMA_CHECK(log_entries_ < kLogCapacity)
      << "ft: notification log overflow at rank " << self_.id() << " ("
      << kLogCapacity
      << " entries since the last checkpoint) — lower the checkpoint "
         "interval";
  DstLog& log = log_[static_cast<std::size_t>(target)];
  const std::uint64_t header[] = {
      epoch_ + 1,  // the epoch boundary this notification precedes
      ++log.seq,
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)) << 32) |
          win_idx,
      w.byte_offset(target_disp),
      src.size()};
  static_assert(sizeof header == kEntryHeaderBytes);
  const auto* h = reinterpret_cast<const std::byte*>(header);
  log.wire.insert(log.wire.end(), h, h + sizeof header);
  log.wire.insert(log.wire.end(), src.begin(), src.end());
  ++log.entries;
  ++log_entries_;
  self_.na().put_notify(w, src, target, target_disp, tag);
}

bool RecoveryManager::end_epoch() {
  ++epoch_;
  // Quiesce: every rank's epoch traffic is delivered and matched before the
  // fail plan is consulted, so a failure loses exactly the epochs after the
  // last checkpoint, never in-flight wire state (the NIC-durable sender
  // logs cover those epochs).
  self_.barrier();

  int victim = -1;
  net::Fabric& fab = self_.world().fabric();
  const net::FaultParams& fp = fab.params().faults;
  if (fp.fail_rate > 0 && fails_done_ < fp.max_fails &&
      epoch_ >= params_.min_fail_epoch) {
    // Every rank evaluates every rank's draw — communication-free
    // agreement on the victim (first failing rank wins the epoch).
    for (int cand = 0; cand < self_.size(); ++cand) {
      if (fab.faults().fail_draw(cand, epoch_)) {
        victim = cand;
        break;
      }
    }
  }
  if (victim >= 0) {
    ++fails_done_;
    stats_.victim = victim;
    if (!params_.recover) {
      if (self_.id() == victim) {
        ++stats_.fails;
        m_fails_.inc();
        if (auto* j = fab.journal())
          j->append(obs::JournalKind::kRankFail, self_.now(), victim, -1,
                    epoch_);
        fab.set_rank_down(victim);
        for (rma::Window* w : protect_)
          if (w->bytes()) std::memset(w->base(), 0xDD, w->bytes());
        stats_.dead = true;
        return false;
      }
      // Survivors of an unrecovered failure proceed; their next dependence
      // on the dead rank ends in the simulation deadlock detector.
    } else {
      run_recovery(victim);
    }
  }
  if (epoch_ % static_cast<std::uint64_t>(params_.ckpt_interval) == 0)
    checkpoint();
  return true;
}

void RecoveryManager::checkpoint() {
  self_.na().start(req_ckpt_);
  std::uint64_t off = 0;
  std::uint64_t sent = 0;
  for (rma::Window* w : protect_) {
    self_.na().put_notify(*store_win_, na::as_bytes(w->base(), w->bytes()),
                          partner_, off, kCkptTag);
    off += w->bytes();
    sent += w->bytes();
  }
  store_win_->flush(partner_);
  // Blocks until this rank's *store* holds its partner's full checkpoint
  // (counting notification over all of its regions).
  self_.na().wait(req_ckpt_);
  ++stats_.ckpts;
  stats_.ckpt_bytes += sent;
  m_ckpts_.inc();
  m_ckpt_bytes_.inc(sent);
  if (auto* j = self_.world().fabric().journal())
    j->append(obs::JournalKind::kCkptEpoch, self_.now(), self_.id(), partner_,
              epoch_, sent);
  // From this barrier on, every store holds epoch_ consistently.
  self_.barrier();
  last_ckpt_epoch_ = epoch_;
  if (params_.eager_trim) {
    log_entries_ = 0;
    for (DstLog& log : log_) {
      // Epochs are monotone within a log: the checkpointed entries are a
      // prefix of the wire image.
      std::size_t cut = 0;
      while (cut < log.wire.size() && load64(&log.wire[cut]) <= epoch_) {
        const std::size_t len_at = cut + kEntryHeaderBytes - 8;  // last u64
        cut += kEntryHeaderBytes + load64(&log.wire[len_at]);
        --log.entries;
      }
      log.wire.erase(log.wire.begin(),
                     log.wire.begin() + static_cast<std::ptrdiff_t>(cut));
      log_entries_ += log.entries;
    }
  }
}

void RecoveryManager::restore_from_partner() {
  std::uint64_t off = 0;
  for (rma::Window* w : protect_) {
    if (w->bytes()) store_win_->get(w->base(), w->bytes(), partner_, off);
    off += w->bytes();
  }
  store_win_->flush(partner_);
}

void RecoveryManager::apply(const ReplayEntry& e) {
  NARMA_CHECK(e.win_idx < protect_.size())
      << "ft: replay into unknown window " << e.win_idx;
  rma::Window& w = *protect_[e.win_idx];
  NARMA_CHECK(e.disp_bytes + e.payload.size() <= w.bytes())
      << "ft: replay out of window bounds (offset " << e.disp_bytes << " + "
      << e.payload.size() << " > " << w.bytes() << ")";
  if (!e.payload.empty())
    std::memcpy(static_cast<std::byte*>(w.base()) + e.disp_bytes,
                e.payload.data(), e.payload.size());
}

void RecoveryManager::run_recovery(int victim) {
  net::Fabric& fab = self_.world().fabric();
  const int r = self_.id();
  const int n = self_.size();

  if (r == victim) {
    const Time t_fail = self_.now();
    ++stats_.fails;
    m_fails_.inc();
    if (auto* j = fab.journal())
      j->append(obs::JournalKind::kRankFail, t_fail, r, -1, epoch_);
    fab.set_rank_down(r);
    // The host is gone, and protected state with it. The poison fill makes
    // a restore that misses bytes show up as corruption, never as luck.
    for (rma::Window* w : protect_)
      if (w->bytes()) std::memset(w->base(), 0xDD, w->bytes());
    self_.ctx().yield_until(self_.now() + params_.restart, "ft-restart");
    fab.set_rank_up(r);

    restore_from_partner();
    const std::uint64_t restored = last_ckpt_epoch_;
    stats_.restored_epoch = restored;
    if (auto* j = fab.journal())
      j->append(obs::JournalKind::kRankRejoin, self_.now(), r, partner_,
                restored, static_cast<std::uint64_t>(self_.now() - t_fail));

    // Announce *after* the up-transition: peers hold their replay blobs
    // (and all later traffic) until they hear this, so nothing races the
    // rejoin into a dead drop.
    for (int p = 0; p < n; ++p)
      if (p != r) self_.send(&restored, sizeof restored, p, kAnnounceTag);

    // Collect the per-peer logs, dedupe, and bucket by lost epoch. The
    // entries' payloads are views into `blobs`, which outlives the replay.
    std::vector<std::vector<ReplayEntry>> by_epoch(
        static_cast<std::size_t>(epoch_ - restored));
    std::vector<std::vector<std::byte>> blobs(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      std::uint64_t hdr[2] = {0, 0};  // entry count, blob bytes
      self_.recv(hdr, sizeof hdr, p, kLogCountTag);
      std::uint64_t applied = 0;
      std::uint64_t dupes = 0;
      if (hdr[0]) {
        std::vector<std::byte>& blob = blobs[static_cast<std::size_t>(p)];
        blob.resize(hdr[1]);
        self_.recv(blob.data(), blob.size(), p, kLogDataTag);
        const std::byte* cur = blob.data();
        const std::byte* end = cur + blob.size();
        const auto get64 = [&cur] {
          const std::uint64_t v = load64(cur);
          cur += sizeof v;
          return v;
        };
        std::uint64_t prev_seq = 0;
        for (std::uint64_t i = 0; i < hdr[0]; ++i) {
          NARMA_CHECK(cur + kEntryHeaderBytes <= end)
              << "ft: truncated replay blob from rank " << p;
          ReplayEntry e;
          e.src_rank = p;
          e.epoch = get64();
          e.seq = get64();
          const std::uint64_t packed = get64();
          e.win_idx = static_cast<std::uint32_t>(packed & 0xffffffffull);
          e.tag = static_cast<std::int32_t>(packed >> 32);
          e.disp_bytes = get64();
          const std::uint64_t len = get64();
          NARMA_CHECK(cur + len <= end)
              << "ft: truncated replay payload from rank " << p;
          e.payload = {cur, static_cast<std::size_t>(len)};
          cur += len;
          // The per-(sender, destination) seq is strictly increasing: a
          // reordered or duplicated wire log would corrupt the replay.
          NARMA_CHECK(e.seq > prev_seq)
              << "ft: replay log from rank " << p << " not seq-monotonic ("
              << e.seq << " after " << prev_seq << ")";
          prev_seq = e.seq;
          if (e.epoch <= restored) {
            // Already covered by the restored checkpoint (stale entry kept
            // by a lazy-trim log): dedupe, never double-match.
            ++dupes;
            continue;
          }
          NARMA_CHECK(e.epoch <= epoch_)
              << "ft: replay entry from the future (epoch " << e.epoch
              << " > " << epoch_ << ")";
          ++applied;
          by_epoch[static_cast<std::size_t>(e.epoch - restored - 1)]
              .push_back(std::move(e));
        }
        NARMA_CHECK(cur == end)
            << "ft: replay blob size mismatch from rank " << p;
      }
      stats_.replay_applied += applied;
      stats_.replay_dupes += dupes;
      m_applied_.inc(applied);
      m_dupes_.inc(dupes);
      if (auto* j = fab.journal())
        j->append(obs::JournalKind::kReplay, self_.now(), r, p, applied,
                  dupes);
    }

    // Replay the lost epochs in order. Within an epoch the (source, seq)
    // sort fixes the merge order across peers, so replay is deterministic.
    for (std::uint64_t e2 = restored + 1; e2 <= epoch_; ++e2) {
      auto& entries = by_epoch[static_cast<std::size_t>(e2 - restored - 1)];
      std::sort(entries.begin(), entries.end(),
                [](const ReplayEntry& a, const ReplayEntry& b) {
                  return a.src_rank != b.src_rank ? a.src_rank < b.src_rank
                                                  : a.seq < b.seq;
                });
      if (recompute_) {
        recompute_(e2, entries);
      } else {
        for (const ReplayEntry& e : entries) apply(e);
      }
    }
    stats_.recovery_time = self_.now() - t_fail;
    m_recovery_ps_.set(static_cast<std::int64_t>(stats_.recovery_time),
                       self_.now());
  } else {
    // Survivor: wait out the outage (the announcement is the rejoin
    // signal), then ship the whole log for the victim as one blob.
    std::uint64_t restored = 0;
    self_.recv(&restored, sizeof restored, victim, kAnnounceTag);
    const std::span<const std::byte> blob = serialize_log(victim);
    const std::uint64_t hdr[2] = {
        log_[static_cast<std::size_t>(victim)].entries, blob.size()};
    self_.send(hdr, sizeof hdr, victim, kLogCountTag);
    if (!blob.empty())
      self_.send(blob.data(), blob.size(), victim, kLogDataTag);
    // Deliberately NOT trimmed: a second failure before the next
    // checkpoint must be able to replay the same entries again (the
    // victim's epoch dedupe keeps the repeat idempotent).
  }
  self_.barrier();
}

}  // namespace narma::ft
