#include "apps/cholesky.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "common/pages.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace narma::apps {

namespace {

/// Helper bundling the per-rank state of one factorization run.
class CholeskyRun {
 public:
  CholeskyRun(Rank& self, const CholeskyConfig& cfg)
      : self_(self),
        cfg_(cfg),
        p_(self.id()),
        n_(self.size()),
        nt_(cfg.nt),
        b_(cfg.b),
        tile_elems_(static_cast<std::size_t>(cfg.b) * cfg.b),
        tile_bytes_(tile_elems_ * sizeof(double)),
        gen_(cfg.nt * cfg.b, cfg.seed),
        present_(static_cast<std::size_t>(cfg.nt) * cfg.nt, 0),
        // Every rank writes each strictly-lower slot, by generating or
        // receiving it, so that dense front is mapped in now, on huge pages
        // where it fills them. Diagonal slots of other ranks' columns are
        // never written and stay unmapped.
        tiles_(lower_tiles() * tile_bytes_,
               total_broadcast_tiles() * tile_bytes_) {
    NARMA_CHECK(nt_ * nt_ < mp::kMaxUserTag)
        << "tile coordinate does not fit the tag encoding (nt too large)";
    // Generate only the tiles of the owned columns; every other slot is
    // filled by the broadcast before it is read.
    for (int j = 0; j < nt_; ++j) {
      if (owner(j) != p_) continue;
      for (int i = j; i < nt_; ++i) gen_.fill_tile(i, j, b_, tile(i, j));
    }

    tile_win_ = self_.rma().create(tiles_.data(), lower_tiles() * tile_bytes_,
                                   sizeof(double));
    // One-sided notification window: slot 0 is the reservation counter,
    // slots 1.. hold coordinates (+1 so 0 means empty). Sized for every
    // broadcast arrival; the paper uses a ring buffer — with a full-size
    // buffer no wraparound handling is needed.
    const std::size_t notif_slots = 2 + total_broadcast_tiles();
    notif_win_ = self_.win_allocate(notif_slots * sizeof(std::int64_t),
                                    sizeof(std::int64_t));
    auto notif = notif_win_->local<std::int64_t>();
    notif[0] = 1;  // next free coordinate slot (reserved via fetch-add)

    if (cfg_.variant == CholeskyVariant::kNotified) {
      req_ = self_.na().notify_init(*tile_win_,
                                    na::MatchSpec{na::kAnySource, na::kAnyTag},
                                    1);
    }
  }

  CholeskyResult run();

  /// Every slot, in tile_slot order.
  std::span<const double> slots() const {
    return {static_cast<const double*>(tiles_.data()),
            lower_tiles() * tile_elems_};
  }

 private:
  std::size_t lower_tiles() const {
    return static_cast<std::size_t>(nt_) * (nt_ + 1) / 2;
  }
  std::size_t total_broadcast_tiles() const {
    // All strictly-lower panel tiles are broadcast.
    return static_cast<std::size_t>(nt_) * (nt_ - 1) / 2;
  }

  std::size_t slot(int i, int k) const {
    NARMA_ASSERT(i >= k);
    return tile_slot(nt_, i, k);
  }
  double* tile(int i, int k) {
    return static_cast<double*>(tiles_.data()) + slot(i, k) * tile_elems_;
  }
  std::uint64_t tile_disp(int i, int k) const {
    return slot(i, k) * tile_elems_;  // disp unit = double
  }

  int owner(int col) const { return col % n_; }
  int coord_of(int i, int k) const { return i * nt_ + k; }

  bool is_present(int i, int k) const {
    return present_[static_cast<std::size_t>(i) * nt_ + k] != 0;
  }
  void mark_present(int i, int k) {
    present_[static_cast<std::size_t>(i) * nt_ + k] = 1;
  }

  // --- Binary-tree broadcast overlay rooted at the producer ----------------

  /// Overlay children of this rank for a broadcast rooted at `root`.
  void overlay_children(int root, int* c0, int* c1) const {
    const int v = (p_ - root + n_) % n_;
    const int v0 = 2 * v + 1, v1 = 2 * v + 2;
    *c0 = v0 < n_ ? (v0 + root) % n_ : -1;
    *c1 = v1 < n_ ? (v1 + root) % n_ : -1;
  }

  /// Sends tile (i, k) (already in local storage) to one overlay child
  /// using the variant's transport.
  void send_tile(int child, int i, int k) {
    const int coord = coord_of(i, k);
    switch (cfg_.variant) {
      case CholeskyVariant::kMessagePassing:
        // Nonblocking: a blocking (rendezvous) send could deadlock when two
        // ranks forward to each other in different broadcast trees. Tile
        // slots are stable, so completion can wait until the end.
        pending_sends_.push_back(
            self_.mp().isend(tile(i, k), tile_bytes_, child, coord));
        break;
      case CholeskyVariant::kNotified:
        self_.na().put_notify(*tile_win_, na::as_bytes(tile(i, k), tile_bytes_),
                              child,
                              tile_disp(i, k), coord);
        break;
      case CholeskyVariant::kOneSided: {
        // The paper's excerpt: put the tile, reserve a notification slot
        // with fetch_and_op, flush, then put the coordinate.
        tile_win_->put(tile(i, k), tile_bytes_, child, tile_disp(i, k));
        coord_stage_.push_back(coord + 1);
        std::int64_t dest = 0;
        notif_win_->fetch_add_i64(child, 0, 1, &dest);
        tile_win_->flush(child);
        notif_win_->flush(child);  // need `dest`, and order before the coord
        notif_win_->put(&coord_stage_.back(), sizeof(std::int64_t), child,
                        static_cast<std::uint64_t>(dest));
        break;
      }
    }
  }

  /// Broadcast step: producer or forwarder pushes tile (i, k) to its
  /// overlay children in the tree rooted at owner(k).
  void forward_tile(int i, int k) {
    int c0, c1;
    overlay_children(owner(k), &c0, &c1);
    if (c0 >= 0) send_tile(c0, i, k);
    if (c1 >= 0) send_tile(c1, i, k);
  }

  // --- Receiving ---------------------------------------------------------------

  /// Receives exactly one incoming tile, marks it present, and forwards it
  /// down the overlay.
  void receive_one() {
    int coord = -1;
    switch (cfg_.variant) {
      case CholeskyVariant::kMessagePassing: {
        // Tag-encoded coordinates: probe, decode, receive into place.
        const mp::Status st = self_.mp().probe(mp::kAnySource, mp::kAnyTag);
        coord = st.tag;
        NARMA_CHECK(coord >= 0 && coord < nt_ * nt_)
            << "unexpected tag " << coord << " in tile traffic";
        const int i = coord / nt_, k = coord % nt_;
        self_.mp().recv(tile(i, k), tile_bytes_, st.source, st.tag);
        break;
      }
      case CholeskyVariant::kNotified: {
        self_.na().start(req_);
        na::NaStatus st;
        self_.na().wait(req_, &st);
        coord = st.tag;
        break;
      }
      case CholeskyVariant::kOneSided: {
        // Poll the notification ring for the next coordinate.
        auto notif = notif_win_->local<std::int64_t>();
        const std::size_t slot = next_ring_slot_++;
        NARMA_CHECK(slot + 1 < notif.size()) << "notification ring overflow";
        while (notif[slot] == 0) {
          self_.ctx().drain();
          if (notif[slot] != 0) break;
          self_.ctx().yield_until(self_.now() + ns(100), "chol-ring-poll");
        }
        coord = static_cast<int>(notif[slot] - 1);
        break;
      }
    }
    NARMA_CHECK(coord >= 0 && coord < nt_ * nt_);
    const int i = coord / nt_, k = coord % nt_;
    NARMA_CHECK(!is_present(i, k))
        << "tile (" << i << "," << k << ") received twice at rank " << p_;
    mark_present(i, k);
    ++received_;
    c_tiles_received_.inc();
    forward_tile(i, k);
  }

  /// Blocks until tile (i, k) is available locally, receiving and
  /// forwarding other tiles in the meantime (dataflow progress).
  void wait_tile(int i, int k) {
    while (!is_present(i, k)) receive_one();
  }

  /// Marks a locally produced tile and starts its broadcast.
  void produced(int i, int k, bool broadcast) {
    mark_present(i, k);
    if (broadcast && n_ > 1) forward_tile(i, k);
  }

  Rank& self_;
  const CholeskyConfig& cfg_;
  int p_, n_, nt_, b_;
  std::size_t tile_elems_, tile_bytes_;
  linalg::SpdGenerator gen_;  // regenerates A's entries for verification
  std::vector<char> present_;
  // Lower-triangle tile storage in tile_slot order, 2 MiB-aligned: a slot
  // is written (generated or received) before it is read, and the pages of
  // diagonal tiles a rank never touches are never mapped.
  PageRegion tiles_;
  std::unique_ptr<rma::Window> tile_win_;
  std::unique_ptr<rma::Window> notif_win_;
  // Staging area for in-flight coordinate puts. A deque: elements must stay
  // address-stable while the puts are on the wire (up to two per forwarded
  // tile, so the count is not bounded by total_broadcast_tiles()).
  std::deque<std::int64_t> coord_stage_;
  std::vector<mp::Request> pending_sends_;
  std::size_t next_ring_slot_ = 1;
  std::size_t received_ = 0;
  na::NotifyRequest req_;
  linalg::PackedPanel panel_;  // tile(j, k)^T of the current column step

  // App-level observability; disengaged handles are no-ops.
  obs::Counter c_kernels_;
  obs::Counter c_tiles_received_;
};

CholeskyResult CholeskyRun::run() {
  // Tiles this rank must receive: every broadcast tile it does not produce.
  std::size_t mine = 0;
  for (int j = 0; j < nt_; ++j)
    if (owner(j) == p_) mine += static_cast<std::size_t>(nt_ - 1 - j);
  const std::size_t to_receive =
      n_ == 1 ? 0 : total_broadcast_tiles() - mine;

  if (obs::Registry* reg = self_.world().metrics()) {
    c_kernels_ = reg->counter("app.chol_kernels", p_);
    c_tiles_received_ = reg->counter("app.chol_tiles_received", p_);
  }

  self_.barrier();
  const Time t0 = self_.now();

  // Kernel execution charged at the modeled rate; the host-time profiler
  // attributes the kernel to app_compute.
  auto charge_kernel = [&](double flops, auto&& fn) {
    obs::PhaseScope prof_scope(self_.world().profiler(),
                               obs::Phase::kAppCompute);
    c_kernels_.inc();
    fn();
    self_.compute(ns(flops / cfg_.model_gflops));
  };

  for (int j = 0; j < nt_; ++j) {
    if (owner(j) != p_) continue;
    // Left-looking updates of column j with every panel column k < j.
    // Every update of step (j, k) multiplies by tile(j, k)^T, so it is
    // packed once: the SYRK and each GEMM read this rank's panel, which no
    // other rank's fiber touches while wait_tile runs them.
    for (int k = 0; k < j; ++k) {
      wait_tile(j, k);
      charge_kernel(linalg::flops_syrk(b_), [&] {
        panel_.pack(tile(j, k), b_);
        panel_.update(tile(j, k), tile(j, j));
      });
      for (int i = j + 1; i < nt_; ++i) {
        wait_tile(i, k);
        charge_kernel(linalg::flops_gemm(b_),
                      [&] { panel_.update(tile(i, k), tile(i, j)); });
      }
    }
    // Factorize the diagonal tile and solve the panel below it.
    bool spd = true;
    charge_kernel(linalg::flops_potrf(b_),
                  [&] { spd = linalg::potrf_lower(tile(j, j), b_); });
    NARMA_CHECK(spd) << "matrix not positive definite at tile column " << j;
    produced(j, j, /*broadcast=*/false);  // diagonal tiles are local-only
    for (int i = j + 1; i < nt_; ++i) {
      charge_kernel(linalg::flops_trsm(b_), [&] {
        linalg::trsm_right_lower_trans(tile(j, j), tile(i, j), b_);
      });
      produced(i, j, /*broadcast=*/true);
    }
  }

  // Keep forwarding until every broadcast tile has passed through this rank.
  while (received_ < to_receive) receive_one();

  // Local completion of all outstanding sends/puts before the closing
  // barrier.
  self_.mp().wait_all(pending_sends_);
  tile_win_->flush_all();
  notif_win_->flush_all();
  self_.barrier();
  const Time elapsed_local = self_.now() - t0;

  double el = to_seconds(elapsed_local);
  std::vector<double> all(static_cast<std::size_t>(n_));
  mp::allgather(self_.mp(), &el, sizeof(double), all.data());
  double el_max = 0;
  for (double v : all) el_max = std::max(el_max, v);

  CholeskyResult res;
  res.elapsed = seconds(el_max);
  const double dim = static_cast<double>(nt_) * b_;
  res.gflops = (dim * dim * dim / 3.0) / el_max / 1e9;

  if (cfg_.verify) {
    // Each tile column is checked by its owner: the strictly-lower factor
    // tiles it reads were broadcast to every rank, and the diagonal one is
    // its own. The partial sums are combined in rank order, so every rank
    // reports the same residual.
    const linalg::ResidualSums mine = linalg::residual_sums(
        nt_ * b_, b_, [&](int tj) { return owner(tj) == p_; },
        [&](int i, int j) { return gen_.entry(i, j); },
        [&](int ti, int tk) -> const double* { return tile(ti, tk); });
    std::vector<linalg::ResidualSums> parts(static_cast<std::size_t>(n_));
    mp::allgather(self_.mp(), &mine, sizeof(mine), parts.data());
    linalg::ResidualSums total;
    for (const linalg::ResidualSums& part : parts) total += part;
    res.residual = total.relative();
    res.verified = res.residual < 1e-10;
  }
  return res;
}

}  // namespace

CholeskyResult run_cholesky(Rank& self, const CholeskyConfig& cfg) {
  return run_cholesky(self, cfg, nullptr);
}

CholeskyResult run_cholesky(
    Rank& self, const CholeskyConfig& cfg,
    const std::function<void(std::span<const double> tiles)>& inspect) {
  NARMA_CHECK(cfg.nt >= 1 && cfg.b >= 1);
  NARMA_CHECK(cfg.model_gflops > 0)
      << "model_gflops must be positive (got " << cfg.model_gflops << ")";
  CholeskyRun run(self, cfg);
  const CholeskyResult res = run.run();
  if (inspect) inspect(run.slots());
  return res;
}

}  // namespace narma::apps
