// Tests of causal message tracing (src/obs/msgtrace): the LogGP latency
// decomposition identity, cycle-identity of instrumented vs bare runs,
// causal ordering of consumer-side hops, sampling, ring wrap accounting,
// critical-path extraction, and the narma.msgtrace.v1 JSON schema.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/world.hpp"
#include "obs/msgtrace.hpp"

using namespace narma;

namespace {

/// Parameters with causal message tracing on, sampling every
/// `sample_every`th injected message per rank.
WorldParams traced(std::uint64_t sample_every = 1) {
  WorldParams wp;
  wp.obs.msgtrace = true;
  wp.obs.msgtrace_sample_every = sample_every;
  return wp;
}

Time cat(const obs::MsgTrace::MsgSummary& m, obs::LatCat c) {
  return m.cat[static_cast<std::size_t>(c)];
}

/// `rounds` half-round-trips of an 8-byte put_notify ping-pong between two
/// internode ranks (FMA transport) — the paper's Fig. 3b microbenchmark
/// shape, and the cleanest setting for checking the decomposition against
/// Table I parameters.
void run_pingpong(World& world, int rounds) {
  world.run([rounds](Rank& self) {
    auto win = self.win_allocate(64, 1);
    const int peer = 1 - self.id();
    double v = 1.0 + self.id();
    for (int r = 0; r < rounds; ++r) {
      if ((r % 2) == self.id()) {
        self.na().put_notify(*win, na::as_bytes(&v, 8), peer, 0, r);
        win->flush(peer);
      } else {
        auto req = self.na().notify_init(*win, na::MatchSpec{peer, r}, 1);
        self.na().start(req);
        self.na().wait(req);
        self.na().free(req);
      }
    }
    self.barrier();
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// The central invariant: for every completely recorded message, the category
// decomposition telescopes exactly to the end-to-end virtual latency, and on
// the uncontended FMA path the categories equal the Table I parameters.
// ---------------------------------------------------------------------------

TEST(MsgTrace, PingPongDecompositionMatchesLogGP) {
  World world(2, traced());
  run_pingpong(world, 8);

  const net::TransportTiming& fma = world.params().fabric.aries.fma;
  const Time t_na = world.params().na.t_na;
  int put_notifies = 0;
  for (const auto& m : world.msgtrace()->summarize()) {
    ASSERT_TRUE(m.complete) << "msg " << m.id;
    EXPECT_EQ(m.cat_sum(), m.latency()) << "msg " << m.id;
    if (m.op != obs::MsgOp::kPutNotify) continue;
    ++put_notifies;
    EXPECT_EQ(cat(m, obs::LatCat::kSrcOverhead), t_na);
    EXPECT_EQ(cat(m, obs::LatCat::kWire), fma.L);
    EXPECT_EQ(cat(m, obs::LatCat::kGap), fma.g);
    EXPECT_EQ(cat(m, obs::LatCat::kSer),
              static_cast<Time>(8 * fma.G_ps_per_byte));
    // Strict alternation: the channel is idle when each put is issued.
    EXPECT_EQ(cat(m, obs::LatCat::kChanQueue), 0u);
  }
  EXPECT_EQ(put_notifies, 8);
}

// ---------------------------------------------------------------------------
// Cycle identity: recording hooks only read virtual clocks, so every rank's
// final virtual time is bit-identical with tracing off, on, and sampled.
// ---------------------------------------------------------------------------

namespace {

std::vector<Time> run_mixed_workload(bool msgtrace,
                                     std::uint64_t sample_every) {
  WorldParams wp = traced(sample_every);
  wp.obs.msgtrace = msgtrace;
  wp.fabric.ranks_per_node = 2;  // shm within a node, FMA/BTE across
  World world(4, wp);
  std::vector<Time> finals(4, 0);
  world.run([&finals](Rank& self) {
    auto win = self.win_allocate(4096, 1);
    const int right = (self.id() + 1) % self.size();
    const int left = (self.id() + 3) % self.size();
    std::vector<double> buf(2048, 0.5 + self.id());
    std::vector<double> in(2048, 0.0);
    for (int it = 0; it < 3; ++it) {
      // Notified ring shift.
      self.na().put_notify(*win, na::as_bytes(buf.data(), 2048), right, 0, it);
      win->flush(right);
      auto req = self.na().notify_init(*win, na::MatchSpec{left, it}, 1);
      self.na().start(req);
      self.na().wait(req);
      self.na().free(req);
      // Two-sided: one eager, one rendezvous message per iteration.
      if (self.id() % 2 == 0) {
        self.send(buf.data(), 64, right, 10 + it);         // eager
        self.send(buf.data(), 16384, right, 20 + it);      // rendezvous
      } else {
        self.recv(in.data(), 64, left, 10 + it);
        self.recv(in.data(), 16384, left, 20 + it);
      }
      // Plain one-sided traffic.
      win->put(buf.data(), 256, right, 0);
      win->flush_all();
    }
    self.barrier();
    finals[static_cast<std::size_t>(self.id())] = self.now();
  });
  return finals;
}

}  // namespace

TEST(MsgTrace, CycleIdenticalWithTracingOffOnAndSampled) {
  const std::vector<Time> bare = run_mixed_workload(false, 0);
  const std::vector<Time> full = run_mixed_workload(true, 1);
  const std::vector<Time> sparse = run_mixed_workload(true, 16);
  EXPECT_EQ(bare, full);
  EXPECT_EQ(bare, sparse);
  for (Time t : bare) EXPECT_GT(t, 0u);
}

// ---------------------------------------------------------------------------
// Causal ordering under a sprinting producer. The producer injects a burst
// and runs far ahead of the consumer's clock; its event drains execute the
// deliveries early. Regression test: consumer-side pops must never be
// stamped before the notification's delivery time (the queues gate entries
// on the consumer's clock; see Nic::pop_hw_batch).
// ---------------------------------------------------------------------------

TEST(MsgTrace, LaggingConsumerNeverObservesFutureDeliveries) {
  constexpr int kMsgs = 12;
  World world(2, traced());
  world.run([](Rank& self) {
    auto win = self.win_allocate(8, 1);
    if (self.id() == 0) {
      double v = 2.0;
      for (int i = 0; i < kMsgs; ++i)
        self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 0, 0);
      win->flush(1);
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        auto req = self.na().notify_init(*win, na::MatchSpec{0, 0}, 1);
        self.na().start(req);
        self.na().wait(req);
        self.na().free(req);
      }
    }
    self.barrier();
  });

  int put_notifies = 0;
  for (const auto& m : world.msgtrace()->summarize()) {
    ASSERT_TRUE(m.complete) << "msg " << m.id;
    EXPECT_EQ(m.cat_sum(), m.latency()) << "msg " << m.id;
    if (m.op == obs::MsgOp::kPutNotify) ++put_notifies;
    Time last_deliver = 0;
    for (const auto& h : m.hops)
      if (h.kind == obs::HopKind::kDeliver) last_deliver = h.t;
    for (const auto& h : m.hops) {
      if (h.kind == obs::HopKind::kPop || h.kind == obs::HopKind::kMatchHit ||
          h.kind == obs::HopKind::kWakeup) {
        EXPECT_GE(h.t, last_deliver)
            << to_string(h.kind) << " precedes delivery, msg " << m.id;
      }
    }
  }
  EXPECT_EQ(put_notifies, kMsgs);
}

// ---------------------------------------------------------------------------
// Sampling: every Nth injection per rank gets an id; the rest cost one
// branch and leave no records.
// ---------------------------------------------------------------------------

TEST(MsgTrace, SamplingTracesEveryNthInjection) {
  World world(2, traced(4));
  run_pingpong(world, 8);

  const obs::MsgTrace& mt = *world.msgtrace();
  EXPECT_EQ(mt.sample_every(), 4u);
  for (int r = 0; r < 2; ++r) {
    EXPECT_GT(mt.injections(r), 0u);
    // begin() samples injections 0, 4, 8, ...
    EXPECT_EQ(mt.sampled(r), (mt.injections(r) + 3) / 4);
  }
  for (const auto& m : world.msgtrace()->summarize())
    EXPECT_EQ(m.cat_sum(), m.latency());
}

// ---------------------------------------------------------------------------
// Ring wrap: a deliberately tiny ring drops oldest records, counts them,
// and summarize() degrades gracefully (messages whose kInject was
// overwritten are flagged incomplete, never mis-decomposed).
// ---------------------------------------------------------------------------

TEST(MsgTrace, RingWrapCountsDropsAndFlagsIncomplete) {
  WorldParams wp;
  wp.obs.msgtrace = true;
  wp.obs.msgtrace_ring_capacity = 16;
  World world(2, wp);
  run_pingpong(world, 10);

  const obs::MsgTrace& mt = *world.msgtrace();
  EXPECT_GT(mt.dropped(0) + mt.dropped(1), 0u);
  bool any_incomplete = false;
  for (const auto& m : world.msgtrace()->summarize()) {
    if (!m.complete) any_incomplete = true;
    else EXPECT_EQ(m.cat_sum(), m.latency());
  }
  EXPECT_TRUE(any_incomplete);
  EXPECT_FALSE(world.msgtrace()->to_json().empty());
}

// ---------------------------------------------------------------------------
// Critical path: the backward walk partitions its span exactly, both by
// category and by rank.
// ---------------------------------------------------------------------------

TEST(MsgTrace, CriticalPathPartitionsSpanExactly) {
  World world(2, traced());
  run_pingpong(world, 6);

  const obs::MsgTrace::CritPath cp = world.msgtrace()->critical_path();
  EXPECT_LT(cp.t_begin, cp.t_end);
  EXPECT_EQ(cp.cat_sum(), cp.span());
  Time rank_sum = 0;
  for (Time t : cp.per_rank) rank_sum += t;
  EXPECT_EQ(rank_sum, cp.span());
  EXPECT_FALSE(cp.messages.empty());
  // The ping-pong dependency chain threads through both ranks.
  EXPECT_EQ(cp.per_rank.size(), 2u);
  EXPECT_GT(cp.per_rank[0], 0u);
  EXPECT_GT(cp.per_rank[1], 0u);
}

// ---------------------------------------------------------------------------
// Export: flow-id namespace and the narma.msgtrace.v1 document.
// ---------------------------------------------------------------------------

TEST(MsgTrace, FlowIdNamespaceIsExactInDouble) {
  const std::uint64_t id = obs::MsgTrace::flow_id((2ull << 40) | 7u);
  EXPECT_EQ(id >> 52, 1ull);                 // high-bit namespace
  EXPECT_LT(id, 1ull << 53);                 // exact in a double
  EXPECT_EQ(static_cast<std::uint64_t>(static_cast<double>(id)), id);
}

TEST(MsgTrace, JsonSchemaRoundTripsWithExactSums) {
  World world(2, traced());
  run_pingpong(world, 4);

  const std::string dir = testing::TempDir() + "msgtrace_run";
  ASSERT_EQ(world.write_artifacts(dir), "");
  const json::ParseResult doc = json::parse_file(dir + "/msgtrace.json");
  ASSERT_TRUE(doc.ok) << doc.error;

  EXPECT_EQ(doc.value.string_or("schema", ""), "narma.msgtrace.v1");
  EXPECT_EQ(doc.value.number_or("nranks", 0), 2.0);
  const json::Array& msgs = doc.value["messages"].as_array();
  EXPECT_FALSE(msgs.empty());
  constexpr const char* kCats[] = {"src_overhead", "chan_queue", "gap",  "ser",
                                   "wire", "blocked", "match", "retry", "local"};
  for (const json::Value& m : msgs) {
    if (!m["complete"].as_bool()) continue;
    const double latency = m.number_or("latency_ps", -1);
    EXPECT_EQ(latency,
              m.number_or("t_end_ps", 0) - m.number_or("t_begin_ps", 0));
    double sum = 0;
    for (const char* c : kCats) sum += m["decomp_ps"].number_or(c, 0);
    EXPECT_EQ(sum, latency);
    EXPECT_FALSE(m["hops"].as_array().empty());
  }
  // Critical path block partitions its span too.
  const json::Value& cp = doc.value["critical_path"];
  double cp_sum = 0;
  for (const char* c : kCats) cp_sum += cp["decomp_ps"].number_or(c, 0);
  EXPECT_EQ(cp_sum,
            cp.number_or("t_end_ps", 0) - cp.number_or("t_begin_ps", 0));
}
