#include "apps/pingpong.hpp"

#include <array>
#include <vector>

#include "common/stats.hpp"
#include "core/notify.hpp"
#include "rma/window.hpp"

namespace narma::apps {

PingPongResult run_pingpong(Rank& self, const PingPongConfig& cfg) {
  NARMA_CHECK(self.size() == 2) << "ping-pong needs exactly 2 ranks";
  NARMA_CHECK(cfg.reps >= 1);
  NARMA_CHECK(cfg.bytes > 0 || cfg.scheme != PingPongScheme::kUnsynchronized)
      << "the busy-wait ping-pong marks the last byte of a non-empty payload";
  constexpr int kTag = 99;  // Listing 1's customTag
  constexpr int kWarmup = 3;
  const std::size_t bytes = cfg.bytes;
  const int partner = 1 - self.id();
  const bool client = self.id() == 0;
  // Window layout as in Listing 1: ping area at displacement 0, pong area
  // at displacement `bytes` (all displacements in bytes here).
  auto win = self.win_allocate(2 * bytes + 16, 1);
  std::vector<std::byte> snd(bytes + 16, std::byte{1});
  na::NotifyRequest req =
      self.na().notify_init(*win, na::MatchSpec{partner, kTag}, 1);

  // The one-sided transfer of a round trip: the client moves the ping area
  // (displacement 0), the server the pong area (displacement `bytes`).
  const bool get = cfg.scheme == PingPongScheme::kOneSidedGetPscw ||
                   cfg.scheme == PingPongScheme::kNotifiedGet;
  const std::size_t disp = client ? 0 : bytes;
  auto transfer = [&] {
    if (get)
      win->get(snd.data(), bytes, partner, disp);
    else
      win->put(snd.data(), bytes, partner, disp);
  };
  auto notified_transfer = [&] {
    if (get)
      self.na().get_notify(*win, na::as_writable_bytes(snd.data(), bytes),
                           partner, disp, kTag);
    else
      self.na().put_notify(*win, na::as_bytes(snd.data(), bytes), partner,
                           disp, kTag);
    win->flush(partner);
  };
  auto notified_wait = [&] {  // the partner's transfer (a get: it read ours)
    self.na().start(req);
    self.na().wait(req);
  };

  auto iteration = [&] {
    switch (cfg.scheme) {
      case PingPongScheme::kMessagePassing:
        if (client) {
          self.send(snd.data(), bytes, partner, kTag);
          self.recv(snd.data(), bytes, partner, kTag);
        } else {
          self.recv(snd.data(), bytes, partner, kTag);
          self.send(snd.data(), bytes, partner, kTag);
        }
        break;

      case PingPongScheme::kOneSidedPscw:
      case PingPongScheme::kOneSidedGetPscw: {
        std::array<int, 1> grp{partner};
        if (client) {
          win->start(grp);
          transfer();
          win->complete();
          win->post(grp);
          win->wait();
        } else {
          win->post(grp);
          win->wait();
          win->start(grp);
          transfer();
          win->complete();
        }
        break;
      }

      case PingPongScheme::kNotifiedPut:  // Listing 1
      case PingPongScheme::kNotifiedGet:
        if (client) {
          notified_transfer();
          notified_wait();
        } else {
          notified_wait();
          notified_transfer();
        }
        break;

      case PingPongScheme::kUnsynchronized: {
        // The paper's illegal busy-wait benchmark: mark first and last byte
        // of the receive area, put, flush, spin until overwritten.
        auto* mem = static_cast<std::byte*>(win->base());
        const std::size_t roff = client ? bytes : 0;  // where I receive
        constexpr std::byte kMark{0xEE};
        auto spin = [&] {
          while (mem[roff] == kMark || mem[roff + bytes - 1] == kMark)
            self.ctx().yield_until(self.now() + ns(50), "busy-wait");
        };
        mem[roff] = mem[roff + bytes - 1] = kMark;
        if (!client) spin();
        transfer();
        win->flush(partner);
        if (client) spin();
        break;
      }
    }
  };

  for (int w = 0; w < kWarmup; ++w) {
    self.barrier();
    iteration();
  }
  std::vector<double> samples;
  for (int r = 0; r < cfg.reps; ++r) {
    self.barrier();
    const Time t0 = self.now();
    iteration();
    if (client) samples.push_back(to_us(self.now() - t0) / 2.0);
  }
  self.barrier();
  PingPongResult res;
  if (client) res.half_rtt_us = stats::median(samples);
  return res;
}

}  // namespace narma::apps
