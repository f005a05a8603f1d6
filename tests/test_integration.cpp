// Randomized integration tests: mixed protocols in flight at once, fan-in /
// fan-out chaos with verified conservation, many windows, repeated worlds,
// and larger rank counts — parameterized over seeds.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "core/world.hpp"

using namespace narma;

namespace {

struct ChaosParam {
  int ranks;
  std::uint64_t seed;
};

}  // namespace

class Chaos : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(Chaos, RandomNotifiedTrafficConserved) {
  const auto [nranks, seed] = GetParam();
  World world(nranks);
  world.run([&, nranks = nranks, seed = seed](Rank& self) {
    constexpr int kMaxPerPair = 3;
    const int n = self.size();
    // Deterministic random send matrix, identical on every rank.
    Xoshiro256 rng(seed);
    std::vector<std::vector<int>> sends(
        static_cast<std::size_t>(n), std::vector<int>(static_cast<std::size_t>(n)));
    for (auto& row : sends)
      for (auto& v : row)
        v = static_cast<int>(rng.next_below(kMaxPerPair + 1));

    // Window: one slot per (source, sequence) pair.
    auto win = self.win_allocate(
        static_cast<std::size_t>(n) * kMaxPerPair * sizeof(double),
        sizeof(double));

    // Send my row: sends[me][t] notified puts to rank t, tag = sequence.
    const auto me = static_cast<std::size_t>(self.id());
    for (int t = 0; t < n; ++t) {
      if (t == self.id()) continue;
      for (int s = 0; s < sends[me][static_cast<std::size_t>(t)]; ++s) {
        const double payload = self.id() * 100.0 + s;
        self.na().put_notify(*win, na::as_bytes(&payload, sizeof(double)),
                             t,
                             static_cast<std::uint64_t>(self.id()) * kMaxPerPair +
                static_cast<std::uint64_t>(s), s);
        win->flush(t);  // keep `payload` (stack) safe per iteration
      }
    }

    // Receive: one counting request per source with the expected count.
    for (int src = 0; src < n; ++src) {
      if (src == self.id()) continue;
      const int expect = sends[static_cast<std::size_t>(src)][me];
      if (expect == 0) continue;
      auto req = self.na().notify_init(*win, na::MatchSpec{src, na::kAnyTag},
                                        static_cast<std::uint32_t>(expect));
      self.na().start(req);
      self.na().wait(req);
    }
    EXPECT_EQ(self.na().uq_size(), 0u);

    // All payloads in place.
    auto mem = win->local<double>();
    for (int src = 0; src < n; ++src) {
      if (src == self.id()) continue;
      for (int s = 0; s < sends[static_cast<std::size_t>(src)][me]; ++s)
        EXPECT_EQ(mem[static_cast<std::size_t>(src) * kMaxPerPair +
                      static_cast<std::size_t>(s)],
                  src * 100.0 + s);
    }
    self.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, Chaos,
    ::testing::Values(ChaosParam{2, 1}, ChaosParam{3, 2}, ChaosParam{4, 3},
                      ChaosParam{4, 99}, ChaosParam{6, 7},
                      ChaosParam{8, 1234}, ChaosParam{12, 5}),
    [](const auto& info) {
      // Appended piecewise: GCC 12's -Wrestrict misfires on
      // "literal" + std::string&& at -O2 and above.
      std::string name = "r";
      name += std::to_string(info.param.ranks);
      name += "_s";
      name += std::to_string(info.param.seed);
      return name;
    });

TEST(Integration, MixedProtocolsInFlightTogether) {
  World world(4);
  world.run([](Rank& self) {
    const int n = self.size();
    auto na_win = self.win_allocate(sizeof(double) *
                                        static_cast<std::size_t>(n),
                                    sizeof(double));
    auto rma_win = self.win_allocate(sizeof(double) *
                                         static_cast<std::size_t>(n),
                                     sizeof(double));
    const int right = (self.id() + 1) % n;
    const int left = (self.id() - 1 + n) % n;

    // Issue everything at once: a notified put, a plain put, an eager
    // send, and an atomic — all to the right neighbor.
    const double v_na = self.id() + 0.25;
    const double v_rma = self.id() + 0.5;
    const double v_mp = self.id() + 0.75;
    self.na().put_notify(*na_win, na::as_bytes(&v_na, sizeof(double)), right,
                         static_cast<std::uint64_t>(self.id()), 1);
    rma_win->put(&v_rma, sizeof(double), right,
                 static_cast<std::uint64_t>(self.id()));
    auto sreq = self.mp().isend(&v_mp, sizeof(double), right, 2);
    std::int64_t old = -1;
    rma_win->fetch_add_i64(0, 0, 0, &old);  // harmless atomic traffic

    // Complete in mixed order.
    double got_mp = 0;
    auto rreq = self.mp().irecv(&got_mp, sizeof(double), left, 2);
    auto nreq = self.na().notify_init(*na_win, na::MatchSpec{left, 1}, 1);
    self.na().start(nreq);
    self.na().wait(nreq);
    rma_win->flush(right);
    self.mp().wait(rreq);
    self.mp().wait(sreq);
    na_win->flush(right);
    rma_win->flush(0);
    self.barrier();

    EXPECT_EQ(na_win->local<double>()[static_cast<std::size_t>(left)],
              left + 0.25);
    EXPECT_EQ(rma_win->local<double>()[static_cast<std::size_t>(left)],
              left + 0.5);
    EXPECT_EQ(got_mp, left + 0.75);
    self.barrier();
  });
}

TEST(Integration, ManyWindowsManyRequests) {
  World world(3);
  world.run([](Rank& self) {
    constexpr int kWins = 8;
    std::vector<std::unique_ptr<rma::Window>> wins;
    for (int w = 0; w < kWins; ++w)
      wins.push_back(self.win_allocate(64, 1));

    if (self.id() == 0) {
      for (int w = 0; w < kWins; ++w) {
        self.na().put_notify(*wins[static_cast<std::size_t>(w)], na::as_bytes(nullptr, 0), 1, 0, w);
        wins[static_cast<std::size_t>(w)]->flush(1);
      }
    } else if (self.id() == 1) {
      // Complete in reverse window order: cross-window isolation forces
      // everything through the UQ.
      for (int w = kWins - 1; w >= 0; --w) {
        auto req = self.na().notify_init(
            *wins[static_cast<std::size_t>(w)], na::MatchSpec{0, w}, 1);
        self.na().start(req);
        na::NaStatus st;
        self.na().wait(req, &st);
        EXPECT_EQ(st.tag, w);
      }
      EXPECT_EQ(self.na().uq_size(), 0u);
    }
    self.barrier();
    // Collective destruction in reverse creation order.
    while (!wins.empty()) wins.pop_back();
  });
}

TEST(Integration, RepeatedWorldsInOneProcess) {
  for (int run = 0; run < 5; ++run) {
    World world(2 + run % 3);
    int completed = 0;
    world.run([&](Rank& self) {
      auto win = self.win_allocate(8, 1);
      if (self.id() == 0)
        for (int t = 1; t < self.size(); ++t) {
          self.na().put_notify(*win, na::as_bytes(nullptr, 0), t, 0, 1);
          win->flush(t);
        }
      else {
        auto req = self.na().notify_init(*win, na::MatchSpec{0, 1}, 1);
        self.na().start(req);
        self.na().wait(req);
      }
      self.barrier();
      if (self.id() == 0) ++completed;
    });
    EXPECT_EQ(completed, 1);
  }
}

TEST(Integration, SixtyFourRankFanIn) {
  World world(64);
  world.run([](Rank& self) {
    auto win = self.win_allocate(64 * sizeof(double), sizeof(double));
    if (self.id() != 0) {
      const double v = self.id();
      self.na().put_notify(*win, na::as_bytes(&v, sizeof(double)), 0,
                           static_cast<std::uint64_t>(self.id()), 5);
      win->flush(0);
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{na::kAnySource, 5}, 63);
      self.na().start(req);
      self.na().wait(req);
      auto mem = win->local<double>();
      double sum = 0;
      for (int r = 1; r < 64; ++r) sum += mem[static_cast<std::size_t>(r)];
      EXPECT_EQ(sum, 63.0 * 64.0 / 2.0);
    }
    self.barrier();
  });
}
