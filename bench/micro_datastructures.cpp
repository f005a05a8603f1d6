// google-benchmark microbenchmarks of the hot data structures on the real
// CPU: ring buffers, the cache model, the event engine, the PRNG, and the
// notification-matching predicate. These guard the simulator's own
// performance (a slow simulator bounds every experiment above it).
#include <benchmark/benchmark.h>

#include <deque>
#include <vector>

#include "cachesim/cache.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "core/notify.hpp"
#include "net/types.hpp"
#include "sim/engine.hpp"

using namespace narma;

static void BM_RingBufferPushPop(benchmark::State& state) {
  RingBuffer<net::Cqe> rb(1024);
  net::Cqe cqe{net::CqeKind::kPutNotify, 7, 64, 1, 0};
  for (auto _ : state) {
    rb.push(cqe);
    benchmark::DoNotOptimize(rb.pop());
  }
}
BENCHMARK(BM_RingBufferPushPop);

static void BM_CacheTouchHit(benchmark::State& state) {
  cachesim::Cache c = cachesim::make_l1d();
  c.touch(0x1000, 8);
  for (auto _ : state) benchmark::DoNotOptimize(c.touch(0x1000, 8));
}
BENCHMARK(BM_CacheTouchHit);

static void BM_CacheTouchMissStream(benchmark::State& state) {
  cachesim::Cache c = cachesim::make_l1d();
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.touch(addr, 8));
    addr += 64 * 64 * 8;  // new set every time: guaranteed miss traffic
  }
}
BENCHMARK(BM_CacheTouchMissStream);

static void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Xoshiro);

static void BM_ImmediateEncodeDecode(benchmark::State& state) {
  std::uint32_t imm = 0;
  for (auto _ : state) {
    imm = net::encode_imm(1234, 567);
    benchmark::DoNotOptimize(net::imm_source(imm));
    benchmark::DoNotOptimize(net::imm_tag(imm));
  }
}
BENCHMARK(BM_ImmediateEncodeDecode);

static void BM_UqScan(benchmark::State& state) {
  // Linear scan over a deque of notifications, the matching hot loop.
  const auto depth = static_cast<std::size_t>(state.range(0));
  struct Entry {
    std::uint32_t imm;
    std::uint64_t window;
  };
  std::deque<Entry> uq;
  for (std::size_t i = 0; i < depth; ++i)
    uq.push_back({net::encode_imm(static_cast<int>(i), 1), 1});
  for (auto _ : state) {
    int matches = 0;
    for (const auto& e : uq)
      if (net::imm_tag(e.imm) == 2 && e.window == 1) ++matches;
    benchmark::DoNotOptimize(matches);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UqScan)->Range(1, 4096)->Complexity(benchmark::oN);

static void BM_UqIndexFindConsume(benchmark::State& state) {
  // The indexed matcher's hot path at a given UQ depth: one failed lookup
  // (wrong tag, the ablation scenario) plus one hit/consume/re-park cycle.
  // Flat in depth, in contrast with BM_UqScan.
  const auto depth = static_cast<std::size_t>(state.range(0));
  na::UqIndex uq;
  for (std::size_t i = 0; i < depth; ++i) {
    net::HwNotification n;
    n.imm = net::encode_imm(static_cast<int>(i), 1);
    n.window = 1;
    uq.insert(n);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(uq.find({1, na::kAnySource, 2}));  // miss
    const net::HwNotification* hit = uq.find({1, na::kAnySource, 1});
    const net::HwNotification repark = *hit;
    uq.erase(hit);
    uq.insert(repark);
    benchmark::DoNotOptimize(uq.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UqIndexFindConsume)->Range(16, 4096)->Complexity(benchmark::o1);

static void BM_UqIndexExactFifo(benchmark::State& state) {
  // The stencil's matching shape: an exact-source/exact-tag request whose
  // producer runs D notifications ahead. Each iteration parks the
  // producer's next notification, then finds and consumes the oldest.
  const auto depth = static_cast<std::size_t>(state.range(0));
  na::UqIndex uq;
  net::HwNotification n;
  n.imm = net::encode_imm(3, 1);
  n.window = 1;
  for (std::size_t i = 0; i < depth; ++i) uq.insert(n);
  for (auto _ : state) {
    uq.insert(n);
    uq.erase(uq.find({1, 3, 1}));
    benchmark::DoNotOptimize(uq.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UqIndexExactFifo)->Range(16, 4096)->Complexity(benchmark::o1);

static void BM_SlotPoolAllocRelease(benchmark::State& state) {
  // Request-slot churn through the slab pool (the notify_init/free path).
  na::SlotPool pool;
  for (auto _ : state) {
    na::RequestSlot* s = pool.alloc();
    benchmark::DoNotOptimize(s);
    pool.release(s);
  }
}
BENCHMARK(BM_SlotPoolAllocRelease);

static void BM_SlotHeapAllocRelease(benchmark::State& state) {
  // Baseline: the same churn through the general-purpose heap.
  for (auto _ : state) {
    auto* s = new na::RequestSlot();
    benchmark::DoNotOptimize(s);
    delete s;
  }
}
BENCHMARK(BM_SlotHeapAllocRelease);

static void BM_EngineEventThroughput(benchmark::State& state) {
  // Events posted and drained inside a single-rank engine run; measures
  // the heap + dispatch cost per event.
  for (auto _ : state) {
    sim::Engine eng(1);
    eng.run([](sim::RankCtx& r) {
      constexpr int kN = 1000;
      int sink = 0;
      for (int i = 0; i < kN; ++i)
        r.engine().post(us(static_cast<double>(i)), [&sink] { ++sink; });
      r.yield_until(us(kN + 1.0));
      benchmark::DoNotOptimize(sink);
    });
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineEventThroughput)->Unit(benchmark::kMicrosecond);

static void BM_ContextSwitch(benchmark::State& state) {
  // Cost of one cooperative yield round trip (rank -> scheduler -> rank).
  for (auto _ : state) {
    sim::Engine eng(1);
    eng.run([](sim::RankCtx& r) {
      for (int i = 0; i < 100; ++i) r.yield_until(r.now() + ns(1));
    });
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ContextSwitch)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
