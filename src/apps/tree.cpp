#include "apps/tree.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "ft/recovery.hpp"

namespace narma::apps {

namespace {

constexpr int kTreeTag = 3;

struct TreeTopo {
  int parent = -1;
  std::vector<int> children;
  int slot_in_parent = 0;  // this rank's slot index at its parent
};

TreeTopo topo_of(int rank, int nranks, int arity) {
  TreeTopo t;
  if (rank != 0) {
    t.parent = (rank - 1) / arity;
    t.slot_in_parent = (rank - 1) % arity;
  }
  for (int c = 1; c <= arity; ++c) {
    const long child = static_cast<long>(rank) * arity + c;
    if (child >= nranks) break;
    t.children.push_back(static_cast<int>(child));
  }
  return t;
}

}  // namespace

TreeResult run_tree(Rank& self, const TreeConfig& cfg) {
  NARMA_CHECK(cfg.elems >= 1 && cfg.arity >= 2 && cfg.reps >= 1);
  const int p = self.id();
  const int n = self.size();
  if (cfg.ft.enabled) {
    NARMA_CHECK(cfg.variant == TreeVariant::kNotified)
        << "fault-tolerant tree requires the NotifiedAccess variant";
    NARMA_CHECK(n >= 2) << "fault-tolerant tree needs >= 2 ranks "
                           "(checkpoints live on a partner rank)";
  }
  const TreeTopo topo = topo_of(p, n, cfg.arity);
  const std::size_t bytes = cfg.elems * sizeof(double);

  // Window layout: arity slots of `elems` doubles each — one landing zone
  // per child.
  auto win = self.win_allocate(
      static_cast<std::size_t>(cfg.arity) * bytes, sizeof(double));
  auto slots = win->local<double>();
  // Fault-tolerant runs (DESIGN.md §15) protect the slot window, one
  // recovery epoch per repetition. Each rep rebuilds `acc` from the
  // constant contribution, so a fail-stop loses only the children's landing
  // zones, and the default replay (every logged entry in (source, seq)
  // order) restores exactly those: no recompute callback is needed.
  std::optional<ft::RecoveryManager> mgr;
  if (cfg.ft.enabled) mgr.emplace(self, cfg.ft, std::vector{win.get()});

  std::vector<double> contribution(cfg.elems,
                                   static_cast<double>(p) + 1.0);
  std::vector<double> acc(cfg.elems);
  std::vector<double> incoming(cfg.elems);

  // Counting notification: one request covers all children (any source).
  na::NotifyRequest req;
  if (cfg.variant == TreeVariant::kNotified && !topo.children.empty()) {
    req = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, kTreeTag},
                                static_cast<std::uint32_t>(
                                    topo.children.size()));
  }

  const Time reduce_elem_cost = self.world().params().mp.reduce_op_per_elem;

  auto combine_slot = [&](std::size_t slot) {
    const double* src = slots.data() + slot * cfg.elems;
    self.compute(reduce_elem_cost * static_cast<Time>(cfg.elems));
    for (std::size_t i = 0; i < cfg.elems; ++i) acc[i] += src[i];
  };

  // App-level observability: reduction count and per-reduction duration.
  obs::Counter c_reductions;
  obs::Histogram h_reduction_ns;
  if (obs::Registry* reg = self.world().metrics()) {
    c_reductions = reg->counter("app.tree_reductions", self.id());
    h_reduction_ns = reg->histogram("app.tree_reduction_ns", self.id());
  }

  // Each repetition is separated by a barrier (no pipelining across
  // reductions), and only the in-reduction span is accumulated; the root
  // finishes last, so the allgathered maximum is the reduction latency.
  Time timed = 0;
  bool dead = false;

  for (int rep = 0; rep < cfg.reps && !dead; ++rep) {
    self.barrier();
    const Time r0 = self.now();
    self.compute(reduce_elem_cost * static_cast<Time>(cfg.elems));
    std::copy(contribution.begin(), contribution.end(), acc.begin());

    switch (cfg.variant) {
      case TreeVariant::kMessagePassing: {
        for (std::size_t c = 0; c < topo.children.size(); ++c) {
          self.recv(incoming.data(), bytes, topo.children[c], kTreeTag);
          self.compute(reduce_elem_cost * static_cast<Time>(cfg.elems));
          for (std::size_t i = 0; i < cfg.elems; ++i) acc[i] += incoming[i];
        }
        if (topo.parent >= 0)
          self.send(acc.data(), bytes, topo.parent, kTreeTag);
        break;
      }

      case TreeVariant::kVendorReduce: {
        mp::reduce_binomial(self.mp(), contribution.data(), acc.data(),
                            cfg.elems, 0);
        break;
      }

      case TreeVariant::kPscw: {
        if (!topo.children.empty()) {
          win->post(std::span<const int>(topo.children));
          win->wait();
          for (std::size_t c = 0; c < topo.children.size(); ++c)
            combine_slot(c);
        }
        if (topo.parent >= 0) {
          std::array<int, 1> pg{topo.parent};
          win->start(pg);
          win->put(acc.data(), bytes, topo.parent,
                   static_cast<std::uint64_t>(topo.slot_in_parent) *
                       cfg.elems);
          win->complete();
        }
        break;
      }

      case TreeVariant::kNotified: {
        if (!topo.children.empty()) {
          self.na().start(req);
          self.na().wait(req);  // counting: completes after all children
          for (std::size_t c = 0; c < topo.children.size(); ++c)
            combine_slot(c);
        }
        if (topo.parent >= 0) {
          const auto src = na::as_bytes(acc.data(), bytes);
          const auto disp =
              static_cast<std::uint64_t>(topo.slot_in_parent) * cfg.elems;
          if (mgr)
            mgr->put_notify(0, src, topo.parent, disp, kTreeTag);
          else
            self.na().put_notify(*win, src, topo.parent, disp, kTreeTag);
          // Local completion so `acc` can be reused next rep.
          win->flush(topo.parent);
        }
        break;
      }
    }
    timed += self.now() - r0;
    c_reductions.inc();
    h_reduction_ns.record_time(self.now() - r0);
    // Every put of this rep was consumed by its parent's counting wait
    // before the parent proceeded, so the boundary is quiesced.
    if (mgr) dead = !mgr->end_epoch();
  }

  TreeResult res;
  if (mgr) res.ft = mgr->stats();
  if (dead) return res;  // no-recover victim: collectives in the dtors
                         // block and the deadlock detector fires

  self.barrier();

  double el = to_seconds(timed);
  std::vector<double> all(static_cast<std::size_t>(n));
  mp::allgather(self.mp(), &el, sizeof(double), all.data());
  double el_max = 0;
  for (double v : all) el_max = std::max(el_max, v);

  res.elapsed = seconds(el_max);
  res.per_op_us = el_max * 1e6 / static_cast<double>(cfg.reps);
  if (p == 0) {
    const double expected =
        static_cast<double>(n) * (static_cast<double>(n) + 1.0) / 2.0;
    res.result0 = acc[0];
    res.verified = acc[0] == expected;
  }
  return res;
}

}  // namespace narma::apps
