#include "net/faults.hpp"

#include "common/assert.hpp"

namespace narma::net {

namespace {

// SplitMix64 finalizer (same mixer the common/rng.hpp generators seed
// through): full-avalanche, so consecutive counter values give independent
// uniform draws.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FaultInjector::FaultInjector(const FaultParams& params, int nranks)
    : params_(params), enabled_(params.any_faults()) {
  NARMA_CHECK(params_.drop_rate >= 0 && params_.drop_rate <= 1 &&
              params_.delay_rate >= 0 && params_.delay_rate <= 1 &&
              params_.stall_rate >= 0 && params_.stall_rate <= 1 &&
              params_.pressure_rate >= 0 && params_.pressure_rate <= 1 &&
              params_.fail_rate >= 0 && params_.fail_rate <= 1)
      << "FaultParams rates must lie in [0, 1]";
  NARMA_CHECK(params_.max_retries > 0) << "FaultParams::max_retries";
  // The jitter magnitude formula below computes delay_max - 1 in unsigned
  // Time arithmetic; delay_max == 0 would wrap to an astronomical delay.
  NARMA_CHECK(params_.delay_rate == 0 || params_.delay_max >= 1)
      << "FaultParams::delay_max must be >= 1 when delay_rate > 0";
  transfer_seq_.assign(static_cast<std::size_t>(nranks), 0);
  pressure_seq_.assign(static_cast<std::size_t>(nranks), 0);
}

double FaultInjector::uniform(std::uint64_t rank, std::uint64_t seq,
                              std::uint64_t salt) const {
  // Three rounds of mixing keep the (seed, rank, seq, salt) coordinates from
  // interacting linearly; 53 bits -> uniform double in [0, 1).
  const std::uint64_t h =
      mix64(mix64(mix64(params_.seed ^ (rank * 0x9e3779b97f4a7c15ull)) ^ seq) ^
            (salt * 0xda942042e4dd58b5ull));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

FaultInjector::TransferFaults FaultInjector::next_transfer(int src) {
  TransferFaults f;
  const auto r = static_cast<std::size_t>(src);
  const std::uint64_t seq = transfer_seq_[r]++;
  if (params_.drop_rate > 0)
    f.drop = uniform(r, seq, 0) < params_.drop_rate;
  if (params_.delay_rate > 0 && uniform(r, seq, 1) < params_.delay_rate) {
    // Jitter in (0, delay_max]: nonzero so an injected delay is observable.
    const double u = uniform(r, seq, 2);
    f.extra_delay = 1 + static_cast<Time>(
                            u * static_cast<double>(params_.delay_max - 1));
  }
  if (params_.stall_rate > 0 && uniform(r, seq, 3) < params_.stall_rate)
    f.stall = FaultParams::kStallTime;
  return f;
}

bool FaultInjector::next_pressure(int rank) {
  if (params_.pressure_rate <= 0) return false;
  const auto r = static_cast<std::size_t>(rank);
  return uniform(r, pressure_seq_[r]++, 4) < params_.pressure_rate;
}

bool FaultInjector::fail_draw(int rank, std::uint64_t epoch) const {
  if (params_.fail_rate <= 0) return false;
  return uniform(static_cast<std::uint64_t>(rank), epoch, 5) <
         params_.fail_rate;
}

FlowControl::FlowControl(const FaultParams& params, int nranks,
                         std::array<std::size_t, kNumQueues> caps)
    : active_(params.overflow_policy == OverflowPolicy::kBackpressure),
      caps_(caps) {
  if (!active_) return;
  in_flight_.assign(static_cast<std::size_t>(nranks), {});
  triggers_.resize(static_cast<std::size_t>(nranks));
}

bool FlowControl::try_acquire(int dst, Queue q) {
  if (!active_) return true;
  std::size_t& n =
      in_flight_[static_cast<std::size_t>(dst)][static_cast<std::size_t>(q)];
  if (n >= caps_[static_cast<std::size_t>(q)]) return false;
  ++n;
  return true;
}

void FlowControl::release(int dst, Queue q, std::size_t n, sim::Engine& eng,
                          Time t) {
  if (!active_ || n == 0) return;
  std::size_t& f =
      in_flight_[static_cast<std::size_t>(dst)][static_cast<std::size_t>(q)];
  NARMA_CHECK(f >= n) << "flow-control credit underflow at rank " << dst
                      << " queue " << static_cast<int>(q);
  f -= n;
  triggers_[static_cast<std::size_t>(dst)][static_cast<std::size_t>(q)]
      .notify(eng, t);
}

}  // namespace narma::net
