// Unit tests of the simulated fabric and NIC: data movement, LogGP timing,
// channel FIFO ordering, transport selection, immediates, atomics, and
// traffic counters.
//
// Memory regions are registered before Engine::run so every rank sees the
// keys from the start (mirroring collectively created windows).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "net/nic.hpp"
#include "net/router.hpp"

using namespace narma;

namespace {

struct NetFixture {
  net::FabricParams params;
  sim::Engine engine;
  net::Fabric fabric;
  explicit NetFixture(int nranks, net::FabricParams p = {})
      : params(p), engine(nranks), fabric(engine, p) {}
};

}  // namespace

TEST(NetImmediate, EncodingRoundTrips) {
  const std::uint32_t imm = net::encode_imm(1234, 567);
  EXPECT_EQ(net::imm_source(imm), 1234);
  EXPECT_EQ(net::imm_tag(imm), 567u);
  EXPECT_EQ(net::imm_tag(net::encode_imm(0, net::kMaxTag)), net::kMaxTag);
}

TEST(NetInline, CopyMatchesMemcpyAtEveryLengthAndAlignment) {
  // copy_inline against memcpy for every inline length at every source and
  // destination misalignment; guard bytes on both sides of the destination
  // must survive the overlapping fixed-size moves.
  constexpr std::size_t kGuard = 16;
  constexpr std::size_t kSpan = 16 + net::kShmInlineCapacity;
  alignas(16) std::array<std::byte, kSpan> src;
  for (std::size_t i = 0; i < kSpan; ++i)
    src[i] = static_cast<std::byte>(0x11 * (i % 15) + i / 15 + 1);
  for (std::size_t n = 0; n <= net::kShmInlineCapacity; ++n)
    for (std::size_t sa = 0; sa < 16; ++sa)
      for (std::size_t da = 0; da < 16; ++da) {
        alignas(16) std::array<std::byte, kGuard + kSpan + kGuard> got, want;
        got.fill(std::byte{0xa5});
        want.fill(std::byte{0xa5});
        net::copy_inline(got.data() + kGuard + da, src.data() + sa, n);
        std::memcpy(want.data() + kGuard + da, src.data() + sa, n);
        ASSERT_EQ(got, want) << "n " << n << " src+" << sa << " dst+" << da;
      }
}

TEST(NetTransport, SelectionByNodeAndSize) {
  NetFixture f(4);
  // Default: one rank per node => never shm.
  EXPECT_EQ(f.fabric.transport_for(0, 1, 8), net::Transport::kFma);
  EXPECT_EQ(f.fabric.transport_for(0, 1, 4096), net::Transport::kBte);
  EXPECT_EQ(f.fabric.transport_for(0, 1, 1 << 20), net::Transport::kBte);

  net::FabricParams p;
  p.ranks_per_node = 2;
  NetFixture g(4, p);
  EXPECT_EQ(g.fabric.transport_for(0, 1, 8), net::Transport::kShm);
  EXPECT_EQ(g.fabric.transport_for(0, 1, 1 << 20), net::Transport::kShm);
  EXPECT_EQ(g.fabric.transport_for(1, 2, 8), net::Transport::kFma);
}

TEST(NetPut, MovesDataAndCompletes) {
  NetFixture f(2);
  std::vector<double> src(16, 3.25), dst(16, 0.0);
  const net::MemKey key =
      f.fabric.nic(1).register_memory(dst.data(), sizeof(double) * 16);
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0) {
      net::PendingOps po;
      nic.put(1, key, 0, src.data(), sizeof(double) * 16, {}, &po);
      nic.flush(po);
      EXPECT_TRUE(po.all_done());
    } else {
      r.yield_until(us(100));
      EXPECT_EQ(dst[0], 3.25);
      EXPECT_EQ(dst[15], 3.25);
    }
  });
}

TEST(NetPut, LatencyMatchesLogGP) {
  NetFixture f(2);
  const auto& tt = f.params.aries.fma;
  const std::size_t bytes = 1024;
  std::vector<std::byte> buf(bytes);
  const net::MemKey key = f.fabric.nic(1).register_memory(buf.data(), bytes);
  const Time deliver_expected =
      tt.g + static_cast<Time>(tt.G_ps_per_byte * static_cast<double>(bytes)) +
      tt.L;
  f.engine.run([&](sim::RankCtx& r) {
    if (r.id() != 0) return;
    net::Nic& nic = f.fabric.nic(0);
    std::vector<std::byte> src(bytes);
    net::PendingOps po;
    nic.put(1, key, 0, src.data(), bytes, {}, &po);
    nic.flush(po);
    // Local completion = delivery + ack latency, exactly.
    EXPECT_EQ(r.now(), deliver_expected + tt.ack_L);
  });
}

TEST(NetPut, BteSelectedAboveThreshold) {
  NetFixture f(2);
  const std::size_t bytes = 64 * 1024;
  std::vector<std::byte> buf(bytes);
  const net::MemKey key = f.fabric.nic(1).register_memory(buf.data(), bytes);
  const auto& tt = f.params.aries.bte;
  const Time deliver_expected =
      tt.g + static_cast<Time>(tt.G_ps_per_byte * static_cast<double>(bytes)) +
      tt.L;
  f.engine.run([&](sim::RankCtx& r) {
    if (r.id() != 0) return;
    net::Nic& nic = f.fabric.nic(0);
    std::vector<std::byte> src(bytes);
    net::PendingOps po;
    nic.put(1, key, 0, src.data(), bytes, {}, &po);
    nic.flush(po);
    EXPECT_EQ(r.now(), deliver_expected + tt.ack_L);
  });
}

TEST(NetPut, NotifyPostsCqeWithImmediate) {
  NetFixture f(2);
  double cell = 0;
  const net::MemKey key = f.fabric.nic(1).register_memory(&cell, sizeof(cell));
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0) {
      double v = 7.5;
      net::PendingOps po;
      nic.put(1, key, 0, &v, sizeof(v), {true, net::encode_imm(0, 42), 99},
              &po);
      nic.flush(po);
    } else {
      nic.wait_until([&] { return !nic.dest_cq().empty(); }, "cqe");
      const net::Cqe cqe = nic.dest_cq().pop();
      EXPECT_EQ(cqe.kind, net::CqeKind::kPutNotify);
      EXPECT_EQ(net::imm_source(cqe.imm), 0);
      EXPECT_EQ(net::imm_tag(cqe.imm), 42u);
      EXPECT_EQ(cqe.window, 99u);
      EXPECT_EQ(cqe.bytes, sizeof(double));
      EXPECT_EQ(cell, 7.5);  // data committed before the CQE is visible
    }
  });
}

TEST(NetPut, ZeroByteNotificationOnly) {
  NetFixture f(2);
  double cell = 1.0;
  const net::MemKey key = f.fabric.nic(1).register_memory(&cell, sizeof(cell));
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0) {
      net::PendingOps po;
      nic.put(1, key, 0, nullptr, 0, {true, net::encode_imm(0, 5), 1}, &po);
      nic.flush(po);
    } else {
      nic.wait_until([&] { return !nic.dest_cq().empty(); }, "cqe0");
      EXPECT_EQ(nic.dest_cq().pop().bytes, 0u);
      EXPECT_EQ(cell, 1.0);  // untouched
    }
  });
}

TEST(NetChannel, FifoPerChannel) {
  NetFixture f(2);
  constexpr int kN = 50;
  std::vector<std::int64_t> cells(kN, -1);
  const net::MemKey key =
      f.fabric.nic(1).register_memory(cells.data(), cells.size() * 8);
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0) {
      net::PendingOps po;
      std::vector<std::int64_t> vals(kN);
      for (int i = 0; i < kN; ++i) {
        vals[static_cast<std::size_t>(i)] = i;
        nic.put(1, key, static_cast<std::uint64_t>(i) * 8,
                &vals[static_cast<std::size_t>(i)], 8,
                {true, net::encode_imm(0, static_cast<std::uint32_t>(i)), 0},
                &po);
      }
      nic.flush(po);
    } else {
      int seen = 0;
      Time prev = 0;
      while (seen < kN) {
        nic.wait_until([&] { return !nic.dest_cq().empty(); }, "fifo");
        const net::Cqe c = nic.dest_cq().pop();
        EXPECT_EQ(net::imm_tag(c.imm), static_cast<std::uint32_t>(seen))
            << "out-of-order delivery";
        EXPECT_GE(c.time, prev);
        prev = c.time;
        ++seen;
      }
    }
  });
}

TEST(NetGet, ReadsRemoteMemory) {
  NetFixture f(2);
  std::vector<double> remote{1.5, 2.5, 3.5, 4.5};
  const net::MemKey key = f.fabric.nic(1).register_memory(remote.data(), 32);
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0) {
      std::vector<double> local(2, 0.0);
      net::PendingOps po;
      nic.get(1, key, 16, local.data(), 16, {}, &po);
      nic.flush(po);
      EXPECT_EQ(local[0], 3.5);
      EXPECT_EQ(local[1], 4.5);
    } else {
      r.yield_until(us(100));
    }
  });
}

TEST(NetGet, NotifiesTargetOnRead) {
  NetFixture f(2);
  double cell = 9.0;
  const net::MemKey key = f.fabric.nic(1).register_memory(&cell, 8);
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0) {
      double v = 0;
      net::PendingOps po;
      nic.get(1, key, 0, &v, 8, {true, net::encode_imm(0, 3), 7}, &po);
      nic.flush(po);
      EXPECT_EQ(v, 9.0);
    } else {
      nic.wait_until([&] { return !nic.dest_cq().empty(); }, "getnotify");
      const net::Cqe c = nic.dest_cq().pop();
      EXPECT_EQ(c.kind, net::CqeKind::kGetNotify);
      EXPECT_EQ(net::imm_tag(c.imm), 3u);
    }
  });
}

TEST(NetGet, NotificationPrecedesResponseArrival) {
  // Reliable-network semantics: the target's notification is posted when the
  // data has been read, one latency before the origin has it.
  NetFixture f(2);
  double cell = 1.0;
  const net::MemKey key = f.fabric.nic(1).register_memory(&cell, 8);
  Time notify_time = 0, origin_done = 0;
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0) {
      double v = 0;
      net::PendingOps po;
      nic.get(1, key, 0, &v, 8, {true, net::encode_imm(0, 1), 0}, &po);
      nic.flush(po);
      origin_done = r.now();
    } else {
      nic.wait_until([&] { return !nic.dest_cq().empty(); }, "gn2");
      notify_time = nic.dest_cq().pop().time;
    }
  });
  EXPECT_LT(notify_time, origin_done);
}

TEST(NetAtomic, FetchAddReturnsOldValue) {
  NetFixture f(3);
  std::int64_t counter = 100;
  const net::MemKey key = f.fabric.nic(2).register_memory(&counter, 8);
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0 || r.id() == 1) {
      std::int64_t old = -1;
      net::PendingOps po;
      nic.atomic(2, key, 0, net::Nic::AtomicOp::kAddI64, 10, 0, &old, {}, &po);
      nic.flush(po);
      EXPECT_TRUE(old == 100 || old == 110) << "old=" << old;
    } else {
      r.yield_until(us(100));
      EXPECT_EQ(counter, 120);
    }
  });
}

TEST(NetAtomic, AddF64) {
  NetFixture f(2);
  double cell = 1.5;
  const net::MemKey key = f.fabric.nic(1).register_memory(&cell, 8);
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0) {
      std::int64_t old = 0;
      net::PendingOps po;
      nic.atomic(1, key, 0, net::Nic::AtomicOp::kAddF64,
                 std::bit_cast<std::int64_t>(2.25), 0, &old, {}, &po);
      nic.flush(po);
      EXPECT_EQ(std::bit_cast<double>(old), 1.5);
    } else {
      r.yield_until(us(100));
      EXPECT_EQ(cell, 3.75);
    }
  });
}

TEST(NetAtomic, CompareAndSwap) {
  NetFixture f(2);
  std::int64_t cell = 5;
  const net::MemKey key = f.fabric.nic(1).register_memory(&cell, 8);
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0) {
      std::int64_t old = -1;
      net::PendingOps po;
      nic.atomic(1, key, 0, net::Nic::AtomicOp::kCasI64, 50, 5, &old, {}, &po);
      nic.flush(po);
      EXPECT_EQ(old, 5);  // successful CAS
      nic.atomic(1, key, 0, net::Nic::AtomicOp::kCasI64, 99, 5, &old, {}, &po);
      nic.flush(po);
      EXPECT_EQ(old, 50);  // failing CAS: compare mismatch
    } else {
      r.yield_until(us(100));
      EXPECT_EQ(cell, 50);
    }
  });
}

TEST(NetMsg, MailboxDeliveryWithPayload) {
  NetFixture f(2);
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0) {
      net::NetMsg m;
      m.kind = 0x42;
      m.h0 = 7;
      m.payload.resize(3, std::byte{0xAB});
      nic.send_msg(1, std::move(m));
    } else {
      nic.wait_until([&] { return !nic.mailbox().empty(); }, "mbox");
      net::NetMsg m = nic.mailbox().pop();
      EXPECT_EQ(m.kind, 0x42u);
      EXPECT_EQ(m.src, 0);
      EXPECT_EQ(m.h0, 7u);
      ASSERT_EQ(m.payload.size(), 3u);
      EXPECT_EQ(m.payload[0], std::byte{0xAB});
    }
  });
}

TEST(NetShm, NotificationRingInlinePayload) {
  net::FabricParams p;
  p.ranks_per_node = 2;
  NetFixture f(2, p);
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0) {
      net::ShmNotification n;
      n.imm = net::encode_imm(0, 9);
      n.window = 4;
      n.bytes = 8;
      n.inline_len = 8;
      const double v = 2.75;
      std::memcpy(n.inline_data.data(), &v, 8);
      net::PendingOps po;
      nic.send_shm_notification(1, n, &po);
      nic.flush(po);
    } else {
      nic.wait_until([&] { return !nic.shm_ring().empty(); }, "shmring");
      const net::ShmNotification n = nic.shm_ring().pop();
      EXPECT_EQ(net::imm_tag(n.imm), 9u);
      EXPECT_EQ(n.inline_len, 8);
      double v = 0;
      std::memcpy(&v, n.inline_data.data(), 8);
      EXPECT_EQ(v, 2.75);
    }
  });
}

TEST(NetShm, NotificationToRemoteNodeAborts) {
  // No engine.run needed: the same-node check fires before any scheduling.
  NetFixture f(2);  // one rank per node
  net::ShmNotification n;
  EXPECT_DEATH(f.fabric.nic(0).send_shm_notification(1, n, nullptr),
               "remote node");
}

TEST(NetCounters, TrackTraffic) {
  NetFixture f(2);
  double cell = 0;
  const net::MemKey key = f.fabric.nic(1).register_memory(&cell, 8);
  f.engine.run([&](sim::RankCtx& r) {
    net::Nic& nic = f.fabric.nic(r.id());
    if (r.id() == 0) {
      double v = 1;
      net::PendingOps po;
      nic.put(1, key, 0, &v, 8, {}, &po);
      nic.get(1, key, 0, &v, 8, {}, &po);
      net::NetMsg m;
      m.kind = 1;
      nic.send_msg(1, std::move(m));
      nic.flush(po);
    } else {
      r.yield_until(us(200));
    }
  });
  const auto& c = f.fabric.counters();
  EXPECT_EQ(c.data_transfers, 2u);  // put + get
  EXPECT_EQ(c.ctrl_transfers, 1u);
  EXPECT_EQ(c.responses, 1u);  // get response
  EXPECT_GE(c.acks, 1u);       // put ack
  EXPECT_GT(c.bytes_on_wire, 0u);
}

TEST(NetMemory, OutOfBoundsAborts) {
  NetFixture f(1);
  net::Nic& nic = f.fabric.nic(0);
  double cell;
  const net::MemKey key = nic.register_memory(&cell, 8);
  EXPECT_DEATH((void)nic.resolve(key, 4, 8), "out of bounds");
  EXPECT_DEATH((void)nic.resolve(key + 100, 0, 8), "invalid memory key");
}

TEST(NetMemory, RegistrationSlotReuse) {
  NetFixture f(1);
  net::Nic& nic = f.fabric.nic(0);
  double a, b;
  const net::MemKey k1 = nic.register_memory(&a, 8);
  nic.deregister_memory(k1);
  const net::MemKey k2 = nic.register_memory(&b, 8);
  EXPECT_EQ(k1, k2);  // slot reused
}

namespace {

/// next_pending_time by definition: the earliest arrival stamped after the
/// rank's clock over every entry of the three inbound queues.
Time scan_pending_time(net::Nic& nic) {
  const Time now = nic.ctx().now();
  Time t = net::Nic::kNoPending;
  auto scan = [&](const auto& q) {
    for (std::size_t i = 0; i < q.size(); ++i)
      if (q.peek(i).time > now) t = std::min(t, q.peek(i).time);
  };
  scan(nic.dest_cq());
  scan(nic.shm_ring());
  scan(nic.mailbox());
  return t;
}

}  // namespace

// Two senders run ahead of a lagging target with notified puts, control
// messages and shm notifications, under delivery jitter; the target
// advances its clock in random steps and drains random batches. Odd seeds
// run the fatal overflow policy (direct pushes), even ones backpressure
// with forced queue pressure (spills and redeliveries). Before and after
// every drain the incremental next_pending_time equals the scan over the
// queues.
TEST(NetPendingTime, MatchesQueueScan) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const bool spills = seed % 2 == 0;
    net::FabricParams p;
    p.ranks_per_node = 3;
    p.faults.seed = seed;
    p.faults.delay_rate = 0.5;
    if (spills) {
      p.faults.pressure_rate = 0.3;
      p.faults.overflow_policy = net::OverflowPolicy::kBackpressure;
    }
    NetFixture f(3, p);
    double cell = 0;
    const net::MemKey key =
        f.fabric.nic(2).register_memory(&cell, sizeof(cell));
    constexpr int kSends = 400;
    int received = 0, checks = 0, future = 0;
    f.engine.run([&](sim::RankCtx& r) {
      net::Nic& nic = f.fabric.nic(r.id());
      Xoshiro256 rng(seed * 16 + static_cast<std::uint64_t>(r.id()));
      if (r.id() < 2) {
        net::PendingOps po;
        const double v = 1.0;  // read by the puts until the flush below
        for (int i = 0; i < kSends; ++i) {
          r.advance(ns(rng.next_below(400)));
          switch (rng.next_below(3)) {
            case 0:
              nic.put(2, key, 0, &v, sizeof(v),
                      {true, net::encode_imm(r.id(), 1), 0}, &po);
              break;
            case 1: {
              net::NetMsg m;
              m.kind = 7;
              nic.send_msg(2, std::move(m));
              break;
            }
            default: {
              net::ShmNotification n{};
              n.imm = net::encode_imm(r.id(), 2);
              nic.send_shm_notification(2, n, &po);
            }
          }
          if (rng.next_below(8) == 0) r.drain();
        }
        nic.flush(po);
        return;
      }
      std::array<net::HwNotification, 8> batch;
      while (received < 2 * kSends) {
        r.yield_until(r.now() + ns(rng.next_below(600)));
        EXPECT_EQ(nic.next_pending_time(), scan_pending_time(nic))
            << "seed " << seed;
        if (rng.next_below(2)) r.drain();
        const auto want = 1 + rng.next_below(batch.size());
        received += static_cast<int>(
            nic.pop_hw_batch(std::span(batch).first(want)));
        while (!nic.mailbox().empty() &&
               nic.mailbox().front().time <= r.now() &&
               rng.next_below(4) != 0) {
          nic.pop_mailbox();
          ++received;
        }
        const Time want_t = scan_pending_time(nic);
        EXPECT_EQ(nic.next_pending_time(), want_t) << "seed " << seed;
        ++checks;
        future += want_t != net::Nic::kNoPending;
      }
      EXPECT_EQ(nic.next_pending_time(), net::Nic::kNoPending);
    });
    EXPECT_EQ(received, 2 * kSends);
    if (spills) {
      EXPECT_GT(f.fabric.counters().retries, 0u) << "no spill was exercised";
    }
    EXPECT_GT(future, checks / 4) << "too few future-stamped entries";
  }
}
