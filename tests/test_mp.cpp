// Unit tests of the two-sided message-passing layer: eager and rendezvous
// protocols, matching semantics (wildcards, ordering, the reserved match
// space), envelope checks, nonblocking requests, probes, and self-sends;
// plus a seeded equivalence property against a linear reference matcher.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/world.hpp"

using namespace narma;

namespace {

void run2(const std::function<void(Rank&)>& fn, WorldParams p = {}) {
  World world(2, p);
  world.run(fn);
}

}  // namespace

TEST(Mp, EagerSendRecvSmall) {
  run2([](Rank& self) {
    std::vector<int> buf(4);
    if (self.id() == 0) {
      std::iota(buf.begin(), buf.end(), 10);
      self.send(buf.data(), buf.size() * 4, 1, 5);
    } else {
      mp::Status st;
      self.recv(buf.data(), buf.size() * 4, 0, 5, &st);
      EXPECT_EQ(buf[0], 10);
      EXPECT_EQ(buf[3], 13);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 5);
      EXPECT_EQ(st.bytes, 16u);
    }
  });
}

TEST(Mp, RendezvousLargeMessage) {
  run2([](Rank& self) {
    const std::size_t n = 1 << 16;  // 64 KB > eager threshold
    std::vector<double> buf(n);
    if (self.id() == 0) {
      for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<double>(i);
      self.send(buf.data(), n * 8, 1, 1);
    } else {
      self.recv(buf.data(), n * 8, 0, 1);
      EXPECT_EQ(buf[0], 0.0);
      EXPECT_EQ(buf[n - 1], static_cast<double>(n - 1));
      EXPECT_EQ(buf[n / 2], static_cast<double>(n / 2));
    }
  });
}

TEST(Mp, ZeroByteMessage) {
  run2([](Rank& self) {
    if (self.id() == 0) {
      self.send(nullptr, 0, 1, 3);
    } else {
      mp::Status st;
      self.recv(nullptr, 0, 0, 3, &st);
      EXPECT_EQ(st.bytes, 0u);
    }
  });
}

TEST(Mp, UnexpectedMessageBuffered) {
  run2([](Rank& self) {
    int v = 7;
    if (self.id() == 0) {
      self.send(&v, 4, 1, 9);
    } else {
      // Let the message arrive unexpected, then post the receive.
      self.ctx().yield_until(us(200), "delay");
      int out = 0;
      self.recv(&out, 4, 0, 9);
      EXPECT_EQ(out, 7);
    }
  });
}

TEST(Mp, AnySourceAnyTagWildcards) {
  run2([](Rank& self) {
    int v = 31;
    if (self.id() == 0) {
      self.send(&v, 4, 1, 17);
    } else {
      int out = 0;
      mp::Status st;
      self.mp().recv(&out, 4, mp::kAnySource, mp::kAnyTag, &st);
      EXPECT_EQ(out, 31);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 17);
    }
  });
}

TEST(Mp, TagSelectsAmongMessages) {
  run2([](Rank& self) {
    int a = 1, b = 2;
    if (self.id() == 0) {
      self.send(&a, 4, 1, 100);
      self.send(&b, 4, 1, 200);
    } else {
      int out = 0;
      // Receive the second tag first.
      self.recv(&out, 4, 0, 200);
      EXPECT_EQ(out, 2);
      self.recv(&out, 4, 0, 100);
      EXPECT_EQ(out, 1);
    }
  });
}

TEST(Mp, SameTagPreservesSendOrder) {
  run2([](Rank& self) {
    if (self.id() == 0) {
      for (int i = 0; i < 10; ++i) self.send(&i, 4, 1, 1);
    } else {
      for (int i = 0; i < 10; ++i) {
        int out = -1;
        self.recv(&out, 4, 0, 1);
        EXPECT_EQ(out, i) << "MPI non-overtaking violated";
      }
    }
  });
}

TEST(Mp, NonblockingIsendIrecv) {
  run2([](Rank& self) {
    std::vector<int> buf(8, 0);
    if (self.id() == 0) {
      std::iota(buf.begin(), buf.end(), 0);
      auto req = self.mp().isend(buf.data(), 32, 1, 2);
      self.mp().wait(req);
    } else {
      auto req = self.mp().irecv(buf.data(), 32, 0, 2);
      // test() may be false before arrival, must eventually succeed.
      mp::Status st;
      while (!self.mp().test(req, &st))
        self.ctx().yield_until(self.now() + us(1), "poll");
      EXPECT_EQ(buf[7], 7);
      EXPECT_EQ(st.bytes, 32u);
    }
  });
}

TEST(Mp, MultipleOutstandingIrecvs) {
  run2([](Rank& self) {
    if (self.id() == 0) {
      int a = 10, b = 20;
      self.send(&a, 4, 1, 1);
      self.send(&b, 4, 1, 2);
    } else {
      int a = 0, b = 0;
      auto r2 = self.mp().irecv(&b, 4, 0, 2);
      auto r1 = self.mp().irecv(&a, 4, 0, 1);
      self.mp().wait(r1);
      self.mp().wait(r2);
      EXPECT_EQ(a, 10);
      EXPECT_EQ(b, 20);
    }
  });
}

TEST(Mp, ProbeReturnsEnvelopeWithoutReceiving) {
  run2([](Rank& self) {
    int v = 5;
    if (self.id() == 0) {
      self.send(&v, 4, 1, 77);
    } else {
      const mp::Status st = self.mp().probe(mp::kAnySource, mp::kAnyTag);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 77);
      EXPECT_EQ(st.bytes, 4u);
      // Message still there; now receive it based on the probe.
      int out = 0;
      self.recv(&out, 4, st.source, st.tag);
      EXPECT_EQ(out, 5);
    }
  });
}

TEST(Mp, IprobeNonblocking) {
  run2([](Rank& self) {
    if (self.id() == 1) {
      mp::Status st;
      EXPECT_FALSE(self.mp().iprobe(0, 1, &st));  // nothing yet
    }
    self.barrier();
    int v = 3;
    if (self.id() == 0) self.send(&v, 4, 1, 1);
    if (self.id() == 1) {
      mp::Status st;
      while (!self.mp().iprobe(0, 1, &st))
        self.ctx().yield_until(self.now() + us(1), "iprobe");
      int out;
      self.recv(&out, 4, 0, 1);
      EXPECT_EQ(out, 3);
    }
  });
}

TEST(Mp, SelfSendMatchesPostedRecv) {
  World world(1);
  world.run([](Rank& self) {
    int out = 0;
    auto req = self.mp().irecv(&out, 4, 0, 4);
    int v = 99;
    self.send(&v, 4, 0, 4);
    self.mp().wait(req);
    EXPECT_EQ(out, 99);
  });
}

TEST(Mp, SelfSendBeforeRecv) {
  World world(1);
  world.run([](Rank& self) {
    int v = 55, out = 0;
    self.send(&v, 4, 0, 6);
    self.recv(&out, 4, 0, 6);
    EXPECT_EQ(out, 55);
  });
}

TEST(Mp, RendezvousUnexpectedRts) {
  // RTS arrives before the receive is posted.
  run2([](Rank& self) {
    const std::size_t n = 1 << 15;
    std::vector<double> buf(n, 0.0);
    if (self.id() == 0) {
      for (std::size_t i = 0; i < n; ++i) buf[i] = 1.25;
      self.send(buf.data(), n * 8, 1, 8);
    } else {
      self.ctx().yield_until(us(300), "late-post");
      self.recv(buf.data(), n * 8, 0, 8);
      EXPECT_EQ(buf[n - 1], 1.25);
    }
  });
}

TEST(Mp, DroppedRendezvousHandlesStayValidUntilTheDataLands) {
  // A caller may drop an active request (MPI_Request_free): the endpoint,
  // not the handle, keeps a rendezvous operation's state alive until the
  // NIC's last write to it (the sender's put ack, the receiver's delivery).
  WorldParams p;
  p.mp.async_progression = true;  // rank 0 answers the CTS while idle
  run2(
      [](Rank& self) {
        const std::size_t n = 1 << 15;  // 256 KiB: rendezvous
        std::vector<double> buf(n, 0.0);
        if (self.id() == 0) {
          std::fill(buf.begin(), buf.end(), 2.5);
          self.mp().isend(buf.data(), n * 8, 1, 8);
        } else {
          self.mp().irecv(buf.data(), n * 8, 0, 8);
          self.ctx().yield_until(us(50), "rts-arrived");
          EXPECT_FALSE(self.mp().iprobe(0, 8, nullptr));  // matches the RTS
        }
        self.ctx().yield_until(us(1000), "data-landed");
        if (self.id() == 1) {
          EXPECT_EQ(buf[n - 1], 2.5);
        }
      },
      p);
}

TEST(Mp, EagerOverflowAborts) {
  EXPECT_DEATH(
      run2([](Rank& self) {
        std::vector<int> big(8, 1);
        int small = 0;
        if (self.id() == 0) self.send(big.data(), 32, 1, 1);
        if (self.id() == 1) self.recv(&small, 4, 0, 1);
      }),
      "overflows receive buffer");
}

TEST(Mp, LatencyEagerBelowRendezvous) {
  // At the same size, forcing rendezvous costs an extra round trip.
  auto one_way = [](std::size_t eager_threshold) {
    WorldParams p;
    p.mp.eager_threshold = eager_threshold;
    World world(2, p);
    Time t{};
    world.run([&](Rank& self) {
      std::vector<char> buf(1024);
      self.barrier();
      const Time t0 = self.now();
      if (self.id() == 0) self.send(buf.data(), 1024, 1, 1);
      if (self.id() == 1) {
        self.recv(buf.data(), 1024, 0, 1);
        t = self.now() - t0;
      }
    });
    return t;
  };
  const Time eager = one_way(4096);
  const Time rdzv = one_way(512);
  EXPECT_LT(eager, rdzv);
}

TEST(Mp, WildcardsNeverSeeReservedTags) {
  // Rank 0 enters the barrier first, so its barrier message is parked at
  // rank 1. Reserved tags are a match space of their own: a fully wildcard
  // probe or receive does not see the message, the barrier's exact receive
  // on its reserved tag does.
  run2([](Rank& self) {
    if (self.id() == 0) {
      self.barrier();
      int v = 11;
      self.send(&v, 4, 1, 3);
      return;
    }
    self.ctx().yield_until(us(200), "late");
    mp::Status st;
    EXPECT_FALSE(self.mp().iprobe(mp::kAnySource, mp::kAnyTag, &st));
    EXPECT_EQ(self.mp().unexpected_count(), 1u);
    int out = 0;
    const mp::Request any =
        self.mp().irecv(&out, 4, mp::kAnySource, mp::kAnyTag);
    EXPECT_FALSE(self.mp().test(any));
    EXPECT_EQ(self.mp().unexpected_count(), 1u);
    EXPECT_EQ(self.mp().posted_count(), 1u);
    self.barrier();
    EXPECT_EQ(self.mp().unexpected_count(), 0u);
    self.mp().wait(any, &st);
    EXPECT_EQ(st.tag, 3);
    EXPECT_EQ(out, 11);
  });
}

TEST(Mp, ArrivalCompletesTheOlderAcceptingReceive) {
  // Two posted receives accept the same envelope, through different shapes
  // (any-source and exact). The first arrival completes whichever was
  // posted first, in both orders.
  for (const bool any_first : {true, false}) {
    run2([any_first](Rank& self) {
      if (self.id() == 0) {
        int a = 1, b = 2;
        self.ctx().yield_until(us(100), "after-posts");
        self.send(&a, 4, 1, 5);
        self.ctx().yield_until(us(300), "second");
        self.send(&b, 4, 1, 5);
        return;
      }
      int first = 0, second = 0;
      const mp::Request older =
          self.mp().irecv(&first, 4, any_first ? mp::kAnySource : 0, 5);
      const mp::Request newer =
          self.mp().irecv(&second, 4, any_first ? 0 : mp::kAnySource, 5);
      self.mp().wait(older);
      EXPECT_EQ(first, 1) << "any_first=" << any_first;
      EXPECT_FALSE(self.mp().test(newer)) << "any_first=" << any_first;
      self.mp().wait(newer);
      EXPECT_EQ(second, 2) << "any_first=" << any_first;
    });
  }
}

// ---------------------------------------------------------------------------
// Envelope checks: every entry point rejects a bad peer or tag with a
// diagnostic naming the call, instead of leaving a request that can never
// match.
// ---------------------------------------------------------------------------

struct BadEnvelope {
  const char* name;
  const char* op;  // isend, irecv, iprobe or probe
  int peer;
  int tag;
  const char* expect;
};

class MpEnvelopeCheck : public ::testing::TestWithParam<BadEnvelope> {};

TEST_P(MpEnvelopeCheck, AbortsWithDiagnostic) {
  const BadEnvelope b = GetParam();
  const std::string op = b.op;
  EXPECT_DEATH(run2([&](Rank& self) {
                 if (self.id() != 0) return;
                 int v = 0;
                 mp::Status st;
                 if (op == "isend")
                   self.mp().isend(&v, 4, b.peer, b.tag);
                 else if (op == "irecv")
                   self.mp().irecv(&v, 4, b.peer, b.tag);
                 else if (op == "iprobe")
                   self.mp().iprobe(b.peer, b.tag, &st);
                 else
                   self.mp().probe(b.peer, b.tag);
               }),
               b.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MpEnvelopeCheck,
    ::testing::Values(
        BadEnvelope{"IsendAnySource", "isend", mp::kAnySource, 1,
                    "isend: bad destination -1"},
        BadEnvelope{"IsendRankPastEnd", "isend", 2, 1,
                    "isend: bad destination 2"},
        BadEnvelope{"IsendAnyTag", "isend", 1, mp::kAnyTag,
                    "isend: tag -1 out of range"},
        BadEnvelope{"IsendTagLimit", "isend", 1, mp::kTagLimit,
                    "isend: tag 65536 out of range"},
        BadEnvelope{"IrecvNegativeSource", "irecv", -2, 1,
                    "irecv: bad source -2"},
        BadEnvelope{"IrecvRankPastEnd", "irecv", 2, 1,
                    "irecv: bad source 2"},
        BadEnvelope{"IrecvNegativeTag", "irecv", 1, -2,
                    "irecv: tag -2 out of range"},
        BadEnvelope{"IrecvTagLimit", "irecv", 1, mp::kTagLimit,
                    "irecv: tag 65536 out of range"},
        BadEnvelope{"IprobeNegativeSource", "iprobe", -2, 1,
                    "iprobe: bad source -2"},
        BadEnvelope{"IprobeRankPastEnd", "iprobe", 2, mp::kAnyTag,
                    "iprobe: bad source 2"},
        BadEnvelope{"IprobeNegativeTag", "iprobe", mp::kAnySource, -2,
                    "iprobe: tag -2 out of range"},
        BadEnvelope{"IprobeTagLimit", "iprobe", 1, mp::kTagLimit,
                    "iprobe: tag 65536 out of range"},
        BadEnvelope{"ProbeNegativeSource", "probe", -2, 1,
                    "probe: bad source -2"},
        BadEnvelope{"ProbeRankPastEnd", "probe", 2, 1,
                    "probe: bad source 2"},
        BadEnvelope{"ProbeNegativeTag", "probe", 1, -2,
                    "probe: tag -2 out of range"},
        BadEnvelope{"ProbeTagLimit", "probe", mp::kAnySource, mp::kTagLimit,
                    "probe: tag 65536 out of range"}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// Equivalence property: seeded random traffic into rank 0, checked against
// a linear reference matcher that also keeps rank 0's clock.
//
// Each step of a script is one operation by one rank at its own time slot,
// 50 us apart, so every message sent in a step has been delivered by the
// next one and rendezvous data has landed one step after its match. Senders
// run with asynchronous progression, so a CTS starts the put without the
// sender's help, and stay up until the script ends. Rank 0 posts receives of all four shapes, probes, sends to
// itself, and after each of its steps tests every outstanding receive in
// post order, recording (source, tag, bytes, clock) at completion. The
// reference replays the same steps with two linear queues and the MpParams
// costs; both must agree on every completion and every probe.
// ---------------------------------------------------------------------------

namespace {

enum class StepOp { kSend, kSelfSend, kRecv, kIprobe, kProbe, kPoll };

struct Step {
  StepOp op;
  int rank;  // the acting rank; every step but kSend is rank 0's
  int peer;  // destination (sends) or source shape (receives, probes)
  int tag;
  std::size_t bytes;
};

struct Completion {
  int source;
  int tag;
  std::size_t bytes;
  Time clock;
  friend bool operator==(const Completion&, const Completion&) = default;
};

struct ProbeResult {
  bool hit;
  int source;
  int tag;
  std::size_t bytes;
  friend bool operator==(const ProbeResult&, const ProbeResult&) = default;
};

struct Outcome {
  std::vector<Completion> completions;  // in completion order
  std::vector<int> completed;           // receive index of each completion
  std::vector<ProbeResult> probes;
};

constexpr int kRanks = 4;
constexpr Time kSlot = us(50);
constexpr std::size_t kCapacity = 32 * 1024;
constexpr int kReservedTag = mp::kMaxUserTag + 1;

Time slot_time(std::size_t step) {
  return static_cast<Time>(step + 1) * kSlot;
}

/// The linear reference: rank 0's two queues scanned front to back, and
/// its clock charged with the same MpParams costs the endpoint charges.
class LinearModel {
 public:
  explicit LinearModel(const mp::MpParams& p) : p_(p) {}

  void step(std::size_t i, Step& s, Outcome& out) {
    if (s.op == StepOp::kSend) {
      mailbox_.push_back({s.rank, s.tag, s.bytes,
                          s.bytes > p_.eager_threshold});
      return;
    }
    clock_ = std::max(clock_, slot_time(i));
    switch (s.op) {
      case StepOp::kSelfSend: {
        clock_ += p_.o_send + copy(s.bytes);
        arrive({0, s.tag, s.bytes, false}, i);
        break;
      }
      case StepOp::kRecv: {
        const int r = static_cast<int>(recvs_.size());
        recvs_.push_back({s.peer, s.tag});
        clock_ += p_.o_recv_post;
        progress(i);
        const auto it = std::find_if(
            unexpected_.begin(), unexpected_.end(),
            [&](const Msg& m) { return accepts(s.peer, s.tag, m); });
        if (it != unexpected_.end()) {
          const Msg m = *it;
          unexpected_.erase(it);
          match(r, m, i);
        } else {
          posted_.push_back(r);
        }
        break;
      }
      case StepOp::kIprobe:
      case StepOp::kProbe: {
        progress(i);
        const auto it = std::find_if(
            unexpected_.begin(), unexpected_.end(),
            [&](const Msg& m) { return accepts(s.peer, s.tag, m); });
        // A blocking probe that would never return is issued as iprobe.
        if (it == unexpected_.end()) s.op = StepOp::kIprobe;
        out.probes.push_back(it == unexpected_.end()
                                 ? ProbeResult{false, 0, 0, 0}
                                 : ProbeResult{true, it->src, it->tag,
                                               it->bytes});
        break;
      }
      default:
        break;
    }
    // Rank 0 tests its outstanding receives in post order.
    for (std::size_t r = 0; r < recvs_.size(); ++r) {
      Recv& rv = recvs_[r];
      if (rv.reported) continue;
      progress(i);
      const bool landed = rv.rts && rv.match_step < i;
      if (!rv.eager_done && !landed) continue;
      rv.reported = true;
      out.completions.push_back({rv.got.src, rv.got.tag, rv.got.bytes,
                                 clock_});
      out.completed.push_back(static_cast<int>(r));
    }
  }

 private:
  struct Msg {
    int src;
    int tag;
    std::size_t bytes;
    bool rts;
  };
  struct Recv {
    int src;
    int tag;
    Msg got{};
    bool eager_done = false;
    bool rts = false;
    std::size_t match_step = 0;
    bool reported = false;
  };

  static bool accepts(int src, int tag, const Msg& m) {
    if (src != mp::kAnySource && src != m.src) return false;
    if (tag == mp::kAnyTag) return m.tag < mp::kMaxUserTag;
    return tag == m.tag;
  }
  Time copy(std::size_t bytes) const {
    return static_cast<Time>(p_.copy_ps_per_byte * static_cast<double>(bytes));
  }

  void match(int r, const Msg& m, std::size_t step) {
    Recv& rv = recvs_[static_cast<std::size_t>(r)];
    rv.got = m;
    clock_ += p_.o_match;
    if (m.rts) {
      clock_ += p_.o_rts;
      rv.rts = true;
      rv.match_step = step;
    } else {
      clock_ += copy(m.bytes);
      rv.eager_done = true;
    }
  }
  void arrive(const Msg& m, std::size_t step) {
    const auto it = std::find_if(posted_.begin(), posted_.end(), [&](int r) {
      const Recv& rv = recvs_[static_cast<std::size_t>(r)];
      return accepts(rv.src, rv.tag, m);
    });
    if (it == posted_.end()) {
      unexpected_.push_back(m);
      return;
    }
    const int r = *it;
    posted_.erase(it);
    match(r, m, step);
  }
  void progress(std::size_t step) {
    while (!mailbox_.empty()) {
      const Msg m = mailbox_.front();
      mailbox_.pop_front();
      arrive(m, step);
    }
  }

  mp::MpParams p_;
  Time clock_ = 0;
  std::deque<Msg> mailbox_;    // delivered, not yet progressed
  std::vector<Msg> unexpected_;
  std::vector<int> posted_;    // receive indices, post order
  std::vector<Recv> recvs_;
};

std::vector<Step> random_script(std::uint64_t seed, const mp::MpParams& p) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<int>(rng() % n);
  };
  const std::size_t e = p.eager_threshold;
  const std::size_t sizes[] = {0, 8, 4096, e, e + 1, 3 * e};
  const int tags[] = {0, 1, 2, kReservedTag};
  std::vector<Step> script;
  const int steps = 20 + pick(30);
  for (int i = 0; i < steps; ++i) {
    Step s{StepOp::kSend, 0, 0, tags[pick(4)], sizes[pick(6)]};
    const int roll = pick(10);
    if (roll < 4) {
      s.rank = 1 + pick(kRanks - 1);
    } else if (roll < 5) {
      s.op = StepOp::kSelfSend;
    } else {
      s.op = roll < 8 ? StepOp::kRecv : roll < 9 ? StepOp::kIprobe
                                                 : StepOp::kProbe;
      s.peer = pick(3) == 0 ? mp::kAnySource : pick(kRanks);
      if (pick(3) == 0) s.tag = mp::kAnyTag;
    }
    script.push_back(s);
  }
  // Two closing polls: the first progresses the last arrivals, the second
  // sees rendezvous data matched by the first land.
  script.push_back({StepOp::kPoll, 0, 0, 0, 0});
  script.push_back({StepOp::kPoll, 0, 0, 0, 0});
  return script;
}

Outcome run_script(const std::vector<Step>& script, const WorldParams& wp) {
  Outcome out;
  World world(kRanks, wp);
  std::vector<std::vector<std::byte>> send_bufs(kRanks,
                                                std::vector<std::byte>(
                                                    kCapacity));
  world.run([&](Rank& self) {
    mp::Endpoint& ep = self.mp();
    std::vector<std::byte>& sbuf =
        send_bufs[static_cast<std::size_t>(self.id())];
    if (self.id() != 0) {
      // Send handles are dropped at once: the endpoint keeps a rendezvous
      // send's state alive until its put completes.
      for (std::size_t i = 0; i < script.size(); ++i) {
        const Step& s = script[i];
        if (s.op != StepOp::kSend || s.rank != self.id()) continue;
        self.ctx().yield_until(slot_time(i), "script");
        ep.isend(sbuf.data(), s.bytes, 0, s.tag);
      }
      // Stay up for the CTS of a late-matched rendezvous send.
      self.ctx().yield_until(slot_time(script.size()), "script-end");
      return;
    }
    std::vector<std::vector<std::byte>> rbufs;
    std::vector<mp::Request> reqs;
    std::vector<bool> reported;
    for (std::size_t i = 0; i < script.size(); ++i) {
      const Step& s = script[i];
      if (s.op == StepOp::kSend) continue;
      self.ctx().yield_until(slot_time(i), "script");
      mp::Status st;
      switch (s.op) {
        case StepOp::kSelfSend:
          ep.isend(sbuf.data(), s.bytes, 0, s.tag);
          break;
        case StepOp::kRecv:
          rbufs.emplace_back(kCapacity);
          reqs.push_back(ep.irecv(rbufs.back().data(), kCapacity, s.peer,
                                  s.tag));
          reported.push_back(false);
          break;
        case StepOp::kIprobe: {
          const bool hit = ep.iprobe(s.peer, s.tag, &st);
          out.probes.push_back(hit ? ProbeResult{true, st.source, st.tag,
                                                 st.bytes}
                                   : ProbeResult{false, 0, 0, 0});
          break;
        }
        case StepOp::kProbe:
          st = ep.probe(s.peer, s.tag);
          out.probes.push_back({true, st.source, st.tag, st.bytes});
          break;
        default:
          break;
      }
      for (std::size_t r = 0; r < reqs.size(); ++r) {
        if (reported[r] || !ep.test(reqs[r], &st)) continue;
        reported[r] = true;
        out.completions.push_back({st.source, st.tag, st.bytes, self.now()});
        out.completed.push_back(static_cast<int>(r));
      }
    }
  });
  return out;
}

}  // namespace

TEST(MpMatchingEquivalence, IndexedQueuesMatchLinearReference) {
  WorldParams wp;
  wp.mp.async_progression = true;
  std::size_t completions = 0, rdzv = 0, hits = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    std::vector<Step> script = random_script(seed, wp.mp);
    LinearModel model(wp.mp);
    Outcome want;
    for (std::size_t i = 0; i < script.size(); ++i)
      model.step(i, script[i], want);
    const Outcome got = run_script(script, wp);
    ASSERT_EQ(got.completed, want.completed) << "seed " << seed;
    for (std::size_t c = 0; c < want.completions.size(); ++c) {
      const Completion& w = want.completions[c];
      const Completion& g = got.completions[c];
      ASSERT_EQ(g, w) << "seed " << seed << ", completion " << c
                      << " (receive " << want.completed[c] << "): got <"
                      << g.source << ", " << g.tag << ", " << g.bytes
                      << "> at " << g.clock << " ps, want <" << w.source
                      << ", " << w.tag << ", " << w.bytes << "> at "
                      << w.clock << " ps";
      rdzv += w.bytes > wp.mp.eager_threshold;
    }
    ASSERT_EQ(got.probes, want.probes) << "seed " << seed;
    completions += want.completions.size();
    hits += static_cast<std::size_t>(
        std::count_if(want.probes.begin(), want.probes.end(),
                      [](const ProbeResult& p) { return p.hit; }));
  }
  // The sweep exercises what it claims to.
  EXPECT_GT(completions, 5000u);
  EXPECT_GT(rdzv, 500u);
  EXPECT_GT(hits, 250u);
}
