// Tests of the fiber execution model (sim/fiber.hpp, DESIGN.md §8): the
// guard-page stack protection, the stale ready-heap skip path, the
// one-cache-line RankCtx layout, and the per-rank fompi binding. Virtual-time
// bit-identity of the fiber engine is pinned by the golden schedule hashes
// in tests/test_transport_backends.cpp. The 4096-rank smoke lives in the
// FiberEngineSlow suite, registered separately under the ctest `slow` label.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/stencil.hpp"
#include "apps/tree.hpp"
#include "cachesim/cache.hpp"
#include "core/fompi.hpp"
#include "core/world.hpp"
#include "sim/fiber.hpp"

using namespace narma;

namespace {

// Deep recursion with a real frame per level; noinline + volatile defeat
// tail-call collapse so each level consumes stack.
__attribute__((noinline)) std::uint64_t blow_stack(std::uint64_t depth) {
  volatile char pad[512];
  pad[0] = static_cast<char>(depth);
  if (depth == 0) return static_cast<std::uint64_t>(pad[0]);
  return blow_stack(depth - 1) + static_cast<std::uint64_t>(pad[511]);
}

}  // namespace

// Overrunning a fiber stack must fault on the PROT_NONE guard page — a
// clean crash, not silent corruption of the neighboring mapping.
TEST(FiberEngineDeathTest, StackOverflowHitsGuardPage) {
  EXPECT_DEATH(
      {
        sim::SimParams sp;
        sp.stack_bytes = sim::Fiber::kMinStackBytes;
        sim::Engine eng(1, sp);
        eng.run([](sim::RankCtx&) { blow_stack(1u << 20); });
      },
      "");
}

// A wait_deadline whose trigger fires before the deadline leaves the
// timeout half in the ready heap; the dispatch loop must drop it by its
// stale generation (one counter tick, no heap rebuild) instead of resuming
// the rank twice.
TEST(FiberEngine, StaleDeadlineEntrySkippedAndCounted) {
  sim::Engine eng(2);
  sim::Trigger trg;
  Time woken_at = 0;
  eng.run([&](sim::RankCtx& r) {
    if (r.id() == 0) {
      r.wait_deadline(trg, us(100), "test-wait");
      woken_at = r.now();
      // Park again past the stale deadline so the dispatch loop must pop
      // (and skip) the leftover us(100) entry before this one.
      r.yield_until(us(200));
    } else {
      r.yield_until(us(1));
      trg.notify(r.engine(), r.now());  // beats the us(100) deadline
    }
  });
  EXPECT_EQ(woken_at, us(1));  // the wake won, not the deadline
  EXPECT_EQ(eng.stale_heap_skips(), 1u);
}

// Without a racing wake the timeout entry is the live one: no skips.
TEST(FiberEngine, DeadlineTimeoutAloneIsNotStale) {
  sim::Engine eng(1);
  sim::Trigger trg;
  eng.run([&](sim::RankCtx& r) {
    r.wait_deadline(trg, us(5), "test-timeout");
    EXPECT_EQ(r.now(), us(5));
  });
  EXPECT_EQ(eng.stale_heap_skips(), 0u);
}

// The counter is exported through the world's metrics registry.
TEST(FiberEngine, StaleSkipCounterExported) {
  WorldParams wp;
  wp.enable_metrics = true;
  World world(2, wp);
  world.run([](Rank& self) { self.barrier(); });
  // Barrier-only run: the value is workload-dependent, but the counter
  // family must exist (counter_value would read 0 for a missing one).
  EXPECT_TRUE(world.metrics()->has("sim.stale_heap_skips"));
}

// The scheduler's per-rank record is exactly one aligned cache line, so the
// dispatch loop's park/wake/resume path touches one line per rank. The
// static_asserts in engine.cpp pin the layout; the cachesim mirror pins the
// consequence the layout exists for.
TEST(FiberEngine, RankCtxSchedulingRecordIsOneCacheLine) {
  static_assert(sizeof(sim::RankCtx) == 64);
  static_assert(alignof(sim::RankCtx) == 64);
  sim::Engine eng(8);
  cachesim::Cache l1 = cachesim::make_l1d();
  for (int i = 0; i < 8; ++i) {
    // Cold touch of the whole record: exactly one compulsory miss — the
    // record neither spans nor straddles a line boundary.
    EXPECT_EQ(l1.touch_object(&eng.rank(i)), 1u) << "rank " << i;
    EXPECT_EQ(l1.touch_object(&eng.rank(i)), 0u) << "rank " << i;
  }
  EXPECT_EQ(l1.stats().misses, 8u);
}

// Engine::current() carries the fompi binding per rank context (every rank
// shares one OS thread, so a thread_local binding would alias them).
namespace {

void fompi_ring(Rank& self) {
  using namespace narma::fompi;
  bind(self);
  int me = -1, np = 0;
  foMPI_Comm_rank(&me);
  foMPI_Comm_size(&np);
  EXPECT_EQ(me, self.id());
  double* buf = nullptr;
  foMPI_Win win;
  foMPI_Win_allocate(sizeof(double), sizeof(double),
                     reinterpret_cast<void**>(&buf), &win);
  const int right = (me + 1) % np;
  const int left = (me + np - 1) % np;
  foMPI_Request req;
  foMPI_Notify_init(win, left, /*tag=*/7, 1, &req);
  foMPI_Start(&req);
  const double payload = 100.0 + me;
  foMPI_Put_notify(&payload, 1, FOMPI_DOUBLE, right, 0, 1, FOMPI_DOUBLE, win,
                   /*tag=*/7);
  foMPI_Status st;
  foMPI_Wait(&req, &st);
  EXPECT_EQ(st.source, left);
  EXPECT_EQ(buf[0], 100.0 + left);
  foMPI_Request_free(&req);
  foMPI_Barrier();
  foMPI_Win_free(&win);
}

}  // namespace

TEST(FiberEngine, FompiBindingPerRankUnderFibers) {
  World world(4);
  world.run(fompi_ring);
}

// ---------------------------------------------------------------------------
// Scale smoke (ctest label `slow`): 4096 simulated ranks on one engine
// thread; both paper workloads must complete and verify.

TEST(FiberEngineSlow, FourKRankStencilCompletes) {
  World world(4096);
  apps::StencilConfig cfg;
  cfg.rows = 16;
  cfg.total_cols = 2 * 4096;  // two columns per rank
  cfg.iters = 1;
  cfg.variant = apps::StencilVariant::kNotified;
  apps::StencilResult res;
  world.run([&](Rank& self) {
    apps::StencilResult r = run_stencil(self, cfg);
    if (self.id() == 0) res = r;
  });
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.elapsed, 0u);
}

TEST(FiberEngineSlow, FourKRankTreeReductionCompletes) {
  World world(4096);
  apps::TreeConfig cfg;
  cfg.elems = 4;
  cfg.arity = 16;
  cfg.reps = 2;
  cfg.variant = apps::TreeVariant::kNotified;
  apps::TreeResult res;
  world.run([&](Rank& self) {
    apps::TreeResult r = run_tree(self, cfg);
    if (self.id() == 0) res = r;
  });
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.elapsed, 0u);
}
