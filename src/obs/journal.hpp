// Anomaly journal: a bounded, virtual-time-stamped log of *typed* anomaly
// records appended by the layers that detect trouble — the fault injector
// (drops, stalls, jitter), NIC backpressure (credit-stall episodes,
// overflow spills, pressure events), and the flight recorder's straggler /
// model-residual monitors. Where the metric registry answers "how much",
// the journal answers "what went wrong, where, and when" — in kilobytes,
// independent of rank count, which is what makes it usable at the 100k-rank
// scale where dense per-rank telemetry is not (DESIGN.md §14).
//
// The ring keeps the most recent `capacity` records and counts what it
// dropped; append order is the deterministic simulation order, so two runs
// of the same schedule produce bit-identical journals, and a fault-free run
// under default thresholds produces an *empty* one (asserted in
// tests/test_obs_reductions.cpp).
//
// Export schema (narma.journal.v1):
//   {"schema":"narma.journal.v1","capacity":C,"appended":A,"dropped":D,
//    "records":[{"t_ps":T,"kind":"fault_drop","rank":R,"peer":P,
//                "a":..,"b":..,"aux":..,"detail":"..."}, ...]}
// `a`/`b`/`aux` are kind-specific payloads (see JournalKind); `detail` is a
// human-readable rendering of the same fields for `narma_cli timeline`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace narma::obs {

enum class JournalKind : std::uint8_t {
  kFaultDrop = 0,   // injected transfer drop; a=bytes, b=attempt
  kFaultStall,      // injected NIC stall;     a=stall_ps
  kFaultJitter,     // injected extra delay;   a=extra_delay_ps
  kPressure,        // forced backpressure;    a=queue id
  kCreditStall,     // credit-stall episode;   peer=target, a=queue id,
                    //                         b=attempts
  kOverflowSpill,   // graceful overflow spill; a=queue depth, b=spill depth
  kStraggler,       // flight-recorder straggler; a=busy ppm, b=median ppm
  kResidual,        // model residual;         peer=window, a=residual_ps,
                    //                         b=model_ps, aux=backend kind
  kRankFail,        // fail-stop fired;        a=epoch
  kRankRejoin,      // rank back up;           peer=ckpt partner,
                    //                         a=restored epoch, b=outage_ps
  kCkptEpoch,       // checkpoint taken;       peer=partner, a=epoch, b=bytes
  kReplay,          // log replay at rejoin;   peer=log source, a=applied,
                    //                         b=deduped
};

const char* to_string(JournalKind k);

/// Bounded anomaly log. Appends are O(1); the ring keeps the most recent
/// `capacity` records.
class Journal {
 public:
  struct Record {
    Time t = 0;
    JournalKind kind = JournalKind::kFaultDrop;
    std::int32_t rank = -1;
    std::int32_t peer = -1;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::int32_t aux = 0;
  };

  explicit Journal(std::size_t capacity);

  void append(JournalKind kind, Time t, std::int32_t rank,
              std::int32_t peer = -1, std::uint64_t a = 0,
              std::uint64_t b = 0, std::int32_t aux = 0);

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return cap_; }
  std::uint64_t appended() const { return appended_; }
  std::uint64_t dropped() const { return dropped_; }
  bool empty() const { return ring_.empty(); }

  /// Records oldest -> newest.
  std::vector<Record> records() const;

  /// Human-readable one-liner for a record ("drop 4096 B attempt 1", ...).
  static std::string detail(const Record& r);

  /// Renders narma.journal.v1.
  std::string to_json() const;

 private:
  std::size_t cap_;
  std::vector<Record> ring_;
  std::size_t head_ = 0;  // next write slot once the ring is full
  std::uint64_t appended_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace narma::obs
