#include "apps/stencil.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "ft/recovery.hpp"

namespace narma::apps {

namespace {

constexpr int kGhostTag = 1;     // per-row boundary value
constexpr int kFeedbackTag = 2;  // corner feedback, last rank -> rank 0

constexpr std::uintptr_t kCacheLine = 64;

/// Column split: first (total % n) ranks get one extra column.
int width_of(int total_cols, int nranks, int rank) {
  return total_cols / nranks + (rank < total_cols % nranks ? 1 : 0);
}

int global_start(int total_cols, int nranks, int rank) {
  int s = 0;
  for (int p = 0; p < rank; ++p) s += width_of(total_cols, nranks, p);
  return s;
}

/// Local grid of one rank: rows x (width + 1); local column 0 is the ghost
/// (left neighbor's last column), local columns 1..width are this rank's
/// global columns gs..gs+width-1.
class LocalGrid {
 public:
  /// Zeroed (the vector's one pass over the grid), then the boundaries.
  LocalGrid(int rows, int width, int gs)
      : rows_(rows), width_(width), gs_(gs),
        data_(static_cast<std::size_t>(rows) *
              static_cast<std::size_t>(width + 1)) {
    // Row 0 carries the global column index (including the ghost).
    for (int j = 0; j <= width_; ++j) at(0, j) = gs_ - 1 + j;
    // Rank 0's leftmost real column is the i-boundary.
    if (gs_ == 0)
      for (int i = 0; i < rows_; ++i) at(i, 1) = i;
  }

  double& at(int r, int j) {
    return data_[static_cast<std::size_t>(r) * (width_ + 1) +
                 static_cast<std::size_t>(j)];
  }

  /// Updates row r over local columns [jstart, width], then prefetches row
  /// r + 1 for write: the next update and the left neighbor's ghost commit
  /// into it find the row in cache instead of on a line that the other
  /// ranks' rows and the checkpoint copies evicted.
  void update_row(int r, int jstart) {
    update_stencil_row(&at(r, 0), &at(r - 1, 0), jstart, width_);
    if (r + 1 == rows_) return;
    const auto first = reinterpret_cast<std::uintptr_t>(&at(r + 1, 0));
    const auto last = reinterpret_cast<std::uintptr_t>(&at(r + 1, width_));
    for (std::uintptr_t line = first & ~(kCacheLine - 1); line <= last;
         line += kCacheLine)
      __builtin_prefetch(reinterpret_cast<const void*>(line), 1);
  }

  double* raw() { return data_.data(); }
  std::size_t bytes() const { return data_.size() * sizeof(double); }
  /// Byte displacement (in doubles) of (r, j) — used as put target disp.
  std::uint64_t disp(int r, int j) const {
    return static_cast<std::uint64_t>(r) * (width_ + 1) +
           static_cast<std::uint64_t>(j);
  }

  int rows() const { return rows_; }
  int width() const { return width_; }

 private:
  int rows_;
  int width_;
  int gs_;
  std::vector<double> data_;
};

struct Topo {
  int p, n, left, right, last;
  bool first_rank, last_rank;
  int jstart;  // first computed local column
};

Topo topo_of(Rank& self) {
  Topo t;
  t.p = self.id();
  t.n = self.size();
  t.left = t.p - 1;
  t.right = t.p + 1;
  t.last = t.n - 1;
  t.first_rank = t.p == 0;
  t.last_rank = t.p == t.n - 1;
  t.jstart = t.first_rank ? 2 : 1;
  return t;
}

}  // namespace

void update_stencil_row(double* cur, const double* prev, int jstart,
                        int width) {
  // Written in two-double vectors (SSE2, the x86-64 baseline): GCC's -O2
  // does not vectorize a loop whose trip count it cannot see.
  typedef double V __attribute__((vector_size(2 * sizeof(double))));
  const double d = cur[jstart - 1] - prev[jstart - 1];
  const V dv = {d, d};
  int j = jstart;
  for (; j < width; j += 2) {
    V p;
    __builtin_memcpy(&p, prev + j, sizeof p);
    p = p + dv;
    __builtin_memcpy(cur + j, &p, sizeof p);
  }
  if (j <= width) cur[j] = prev[j] + d;
}

StencilResult run_stencil(Rank& self, const StencilConfig& cfg) {
  return run_stencil(self, cfg, {});
}

StencilResult run_stencil(
    Rank& self, const StencilConfig& cfg,
    const std::function<void(std::span<const double> grid)>& inspect) {
  const Topo t = topo_of(self);
  if (cfg.ft.enabled) {
    NARMA_CHECK(cfg.variant == StencilVariant::kNotified)
        << "fault-tolerant stencil requires the NotifiedAccess variant";
    NARMA_CHECK(t.n >= 2) << "fault-tolerant stencil needs >= 2 ranks "
                             "(checkpoints live on a partner rank)";
  }
  NARMA_CHECK(cfg.rows >= 2 && cfg.total_cols >= 2);
  NARMA_CHECK(width_of(cfg.total_cols, t.n, 0) >= 2)
      << "rank 0 needs at least two columns (boundary + one computed)";
  NARMA_CHECK(width_of(cfg.total_cols, t.n, t.p) >= 1)
      << "more ranks than columns";

  const int W = width_of(cfg.total_cols, t.n, t.p);
  const int gs = global_start(cfg.total_cols, t.n, t.p);
  LocalGrid g(cfg.rows, W, gs);

  // Every variant registers the whole local grid as a window; only the RMA
  // variants actually use it, but creating it uniformly keeps window ids
  // collective.
  auto win = self.rma().create(g.raw(), g.bytes(), sizeof(double));
  // Fault-tolerant runs (DESIGN.md §15) protect the whole grid, so a partner
  // checkpoint captures the entire pipeline state; one recovery epoch per
  // iteration.
  std::optional<ft::RecoveryManager> mgr;
  if (cfg.ft.enabled) mgr.emplace(self, cfg.ft, std::vector{win.get()});

  // Width of the right neighbor, needed to compute the target displacement
  // of its ghost cells.
  const int right_w =
      t.last_rank ? 0 : width_of(cfg.total_cols, t.n, t.right);
  auto right_ghost_disp = [right_w](int r) {
    return static_cast<std::uint64_t>(r) *
           static_cast<std::uint64_t>(right_w + 1);
  };
  // Rank 0's corner A(0,0) lives at local (0, 1).
  const std::uint64_t corner_disp = 1;

  // Persistent notification requests for the NA variant.
  na::NotifyRequest req_ghost, req_feedback;
  if (cfg.variant == StencilVariant::kNotified) {
    if (!t.first_rank)
      req_ghost = self.na().notify_init(*win, na::MatchSpec{t.left, kGhostTag}, 1);
    if (t.first_rank && t.n > 1)
      req_feedback = self.na().notify_init(*win, na::MatchSpec{t.last, kFeedbackTag}, 1);
  }

  double feedback_buf = 0;  // stable source buffer for the feedback put

  // Row update charged at per_point per computed point. The host-time
  // profiler attributes the kernel itself to app_compute so the report can
  // separate application work from runtime plumbing.
  auto update_row_charged = [&](int r) {
    obs::PhaseScope prof_scope(self.world().profiler(),
                               obs::Phase::kAppCompute);
    g.update_row(r, t.jstart);
    self.compute(cfg.per_point * static_cast<Time>(W - (t.jstart - 1)));
  };

  // Notified put of one double, logged for replay in ft runs.
  auto put_notify = [&](const double* src, int target, std::uint64_t disp,
                        int tag) {
    const auto bytes = na::as_bytes(src, sizeof(double));
    if (mgr)
      mgr->put_notify(0, bytes, target, disp, tag);
    else
      self.na().put_notify(*win, bytes, target, disp, tag);
  };

  // Lost-epoch replay: replays one lost iteration exactly as the live loop
  // produced it. Ghost arrivals first (they feed the row sweep), then the
  // row recurrence, then the corner feedback (which the live loop applies
  // after the sweep and the next iteration's update_row(1) consumes).
  // Compute is charged like the live sweep, so recovery time scales with
  // the number of iterations re-run. Outbound ghosts are not resent: the
  // survivors kept them.
  if (mgr)
    mgr->set_recompute(
        [&](std::uint64_t, std::span<const ft::ReplayEntry> entries) {
          for (const ft::ReplayEntry& e : entries)
            if (e.tag == kGhostTag) mgr->apply(e);
          for (int r = 1; r < cfg.rows; ++r) update_row_charged(r);
          for (const ft::ReplayEntry& e : entries)
            if (e.tag == kFeedbackTag) mgr->apply(e);
        });

  // App-level observability: iteration count and per-iteration duration.
  obs::Counter c_iters;
  obs::Histogram h_iter_ns;
  if (obs::Registry* reg = self.world().metrics()) {
    c_iters = reg->counter("app.stencil_iters", self.id());
    h_iter_ns = reg->histogram("app.stencil_iter_ns", self.id());
  }

  self.barrier();
  const Time t0 = self.now();
  bool dead = false;

  for (int iter = 0; iter < cfg.iters && !dead; ++iter) {
    const Time iter0 = self.now();
    switch (cfg.variant) {
      case StencilVariant::kMessagePassing: {
        for (int r = 1; r < cfg.rows; ++r) {
          if (!t.first_rank)
            self.recv(&g.at(r, 0), sizeof(double), t.left, kGhostTag);
          update_row_charged(r);
          if (!t.last_rank)
            self.send(&g.at(r, W), sizeof(double), t.right, kGhostTag);
        }
        if (t.n > 1) {
          if (t.last_rank) {
            feedback_buf = -g.at(cfg.rows - 1, W);
            self.send(&feedback_buf, sizeof(double), 0, kFeedbackTag);
          }
          if (t.first_rank) {
            self.recv(&g.at(0, 1), sizeof(double), t.last, kFeedbackTag);
          }
        } else {
          g.at(0, 1) = -g.at(cfg.rows - 1, W);
        }
        break;
      }

      case StencilVariant::kFence: {
        // The pipeline degrades into a bulk-synchronous wavefront: one
        // collective fence per diagonal step.
        const int steps = (cfg.rows - 1) + (t.n - 1);
        for (int step = 1; step <= steps; ++step) {
          const int r = step - t.p;
          if (r >= 1 && r < cfg.rows) {
            update_row_charged(r);
            if (!t.last_rank)
              win->put(&g.at(r, W), sizeof(double), t.right,
                       right_ghost_disp(r));
          }
          win->fence();
        }
        if (t.n > 1) {
          if (t.last_rank) {
            feedback_buf = -g.at(cfg.rows - 1, W);
            win->put(&feedback_buf, sizeof(double), 0, corner_disp);
          }
          win->fence();
        } else {
          g.at(0, 1) = -g.at(cfg.rows - 1, W);
        }
        break;
      }

      case StencilVariant::kPscw: {
        std::array<int, 1> left_group{t.left};
        std::array<int, 1> right_group{t.right};
        for (int r = 1; r < cfg.rows; ++r) {
          if (!t.first_rank) {
            win->post(left_group);
            win->wait();
          }
          update_row_charged(r);
          if (!t.last_rank) {
            win->start(right_group);
            win->put(&g.at(r, W), sizeof(double), t.right,
                     right_ghost_disp(r));
            win->complete();
          }
        }
        if (t.n > 1) {
          if (t.first_rank) {
            std::array<int, 1> last_group{t.last};
            win->post(last_group);
            win->wait();
          }
          if (t.last_rank) {
            std::array<int, 1> zero_group{0};
            feedback_buf = -g.at(cfg.rows - 1, W);
            win->start(zero_group);
            win->put(&feedback_buf, sizeof(double), 0, corner_disp);
            win->complete();
          }
        } else {
          g.at(0, 1) = -g.at(cfg.rows - 1, W);
        }
        break;
      }

      case StencilVariant::kNotified: {
        for (int r = 1; r < cfg.rows; ++r) {
          if (!t.first_rank) {
            self.na().start(req_ghost);
            self.na().wait(req_ghost);
          }
          update_row_charged(r);
          if (!t.last_rank)
            put_notify(&g.at(r, W), t.right, right_ghost_disp(r), kGhostTag);
        }
        if (t.n > 1) {
          if (t.last_rank) {
            feedback_buf = -g.at(cfg.rows - 1, W);
            put_notify(&feedback_buf, 0, corner_disp, kFeedbackTag);
          }
          if (t.first_rank) {
            self.na().start(req_feedback);
            self.na().wait(req_feedback);
          }
        } else {
          g.at(0, 1) = -g.at(cfg.rows - 1, W);
        }
        // Local completion before the next iteration reuses boundary cells.
        win->flush_all();
        break;
      }
    }
    c_iters.inc();
    h_iter_ns.record_time(self.now() - iter0);
    // Epoch boundary: every notification of this iteration has been
    // matched (each has a same-iteration waiter), so the fail plan sees a
    // quiesced fabric. Returns false only on a no-recover victim.
    if (mgr) dead = !mgr->end_epoch();
  }

  StencilResult res;
  if (mgr) res.ft = mgr->stats();
  if (dead) return res;  // dtors block on collectives; the deadlock
                         // detector reports the abandoned survivors

  self.barrier();
  const Time elapsed_local = self.now() - t0;

  // Agree on the slowest rank's elapsed time.
  double el = to_seconds(elapsed_local);
  double el_max = el;
  std::vector<double> all(static_cast<std::size_t>(t.n));
  mp::allgather(self.mp(), &el, sizeof(double), all.data());
  for (double v : all) el_max = std::max(el_max, v);

  res.elapsed = seconds(el_max);
  const double updates = static_cast<double>(cfg.rows - 1) *
                         static_cast<double>(cfg.total_cols - 1) *
                         static_cast<double>(cfg.iters);
  res.gmops = updates / el_max / 1e9;
  res.expected_corner =
      static_cast<double>(cfg.iters) *
      static_cast<double>(cfg.rows + cfg.total_cols - 2);
  if (t.first_rank) {
    res.corner = -g.at(0, 1);
    res.verified = res.corner == res.expected_corner;
  }
  if (inspect) inspect({g.raw(), g.bytes() / sizeof(double)});
  return res;
}

}  // namespace narma::apps
