// Causal message tracing: per-message lifecycle records, LogGP latency
// decomposition, and critical-path extraction (DESIGN.md §9).
//
// Every injection site (rma::Window put/get/atomics and PSCW post/complete,
// NaEngine *_notify, mp::Endpoint eager/rendezvous send) asks the MsgTrace for a MsgId; the id
// rides along the simulated wire structures (NotifyAttr, Cqe,
// ShmNotification, HwNotification, NetMsg) and each layer appends a
// fixed-size HopRecord — msg id, hop kind, rank, virtual time, bytes — into
// a per-rank ring buffer. No strings, no allocation on the hot path, one
// branch when disabled, and hooks only *read* virtual clocks: instrumented
// and bare runs are cycle-identical.
//
// The hop taxonomy maps one-to-one onto the LogGP cost model the fabric
// charges (net/fabric.cpp reserve_transfer):
//
//   kInject     API entry at the origin, before software overhead
//   kIssue      handed to the NIC after the o / t_na overhead charge
//   kChanStart  channel became free; injection begins
//   kGapEnd     per-message gap g charged
//   kSerEnd     serialization G*bytes charged; wire flight begins
//   kDeliver    committed / queued at the target (payload or notification)
//   kPop        consumer drained the hardware queue / mailbox
//   kMatchHit   matching engine consumed the notification / envelope
//   kWakeup     consumer-side completion returned to the application
//   kRetry      fault model: retransmit scheduled, delivery deferred, or a
//               sender credit stall resolved (DESIGN.md §10)
//
// Decomposition assigns the interval between adjacent hops to the category
// of the *later* hop (kIssue -> src overhead o, kChanStart -> channel
// queueing, kGapEnd -> gap g, kSerEnd -> serialization G, kDeliver -> wire L,
// kPop -> consumer-blocked, kMatchHit/kWakeup -> match latency; an interval
// ending at kRetry — and one ending at kDeliver whose *earlier* hop is a
// kRetry, i.e. the redelivery leg — is retry/backoff time). Because the
// intervals telescope, the categories provably sum to t_last - t_first: the
// end-to-end virtual latency. Multi-leg protocols (rendezvous RTS->CTS->DATA,
// get responses) repeat hop kinds under one MsgId and the identity still
// holds, with or without faults.
//
// critical_path() walks the causal DAG backwards from the latest CPU-side
// hop: within a message, hop to hop; at an injection, to the latest earlier
// CPU-side hop on the same rank (a previous message's wakeup, match, pop or
// injection), attributing the gap to kLocal (application compute). The
// resulting path partitions its span into the eight categories per rank.
//
// Exports: to_json() renders the stable narma.msgtrace.v1 document (times as
// integer picoseconds so sums can be checked exactly downstream), with the
// lane table World::write_artifacts passes in: each lane's L, g and G, and
// the lane each complete message used, so `narma_cli timeline` can check
// every message against its LogGP floor;
// flow_id(msg) gives each message's Perfetto flow id, which keys the arrows
// `narma_cli timeline --perfetto` draws and the rows `narma_cli critpath`
// prints.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "obs/params.hpp"
#include "obs/profile.hpp"

namespace narma::obs {

/// Unique per-message identifier: (rank+1) << 40 | per-rank sequence.
/// 0 means "not traced" (tracing off or this message not sampled).
using MsgId = std::uint64_t;

/// Operation recorded at the injection hop (self-describing export).
enum class MsgOp : std::uint8_t {
  kPut = 0,
  kPutStrided,
  kGet,
  kAtomic,
  kPutNotify,
  kPutNotifyStrided,
  kGetNotify,
  kGetNotifyStrided,
  kAtomicNotify,
  kEagerSend,
  kRdzvSend,
  kPscwSync,  // appended: ordinals above are stable in narma.msgtrace.v1
};

const char* to_string(MsgOp op);

enum class HopKind : std::uint8_t {
  kInject = 0,
  kIssue,
  kChanStart,
  kGapEnd,
  kSerEnd,
  kDeliver,
  kPop,
  kMatchHit,
  kWakeup,
  kRetry,  // appended last: ordinals above are stable in narma.msgtrace.v1
};

const char* to_string(HopKind k);

/// Latency categories of the decomposition. kLocal is produced only by the
/// critical-path walk (compute gaps between chained messages).
enum class LatCat : std::uint8_t {
  kSrcOverhead = 0,  // o / t_na software overhead at the origin
  kChanQueue,        // waiting for the LogGP channel to drain earlier msgs
  kGap,              // per-message injection gap g
  kSer,              // serialization G * bytes
  kWire,             // wire flight L
  kBlocked,          // delivered but consumer not yet polling
  kMatch,            // matching + consumer-side completion overhead
  kRetry,            // fault model: backoff, redelivery, credit stalls
  kLocal,            // critical path only: application compute between msgs
  kCount,
};

inline constexpr std::size_t kNumCats = static_cast<std::size_t>(LatCat::kCount);

const char* to_string(LatCat c);

/// One lifecycle hop. Fixed 32 bytes; rings hold these verbatim.
struct HopRecord {
  MsgId id = 0;
  Time t = 0;
  /// Record order over all ranks' lanes. It orders a message's hops within
  /// one picosecond: a hop is recorded only after the code that caused it
  /// ran, so record order is causal where time ties.
  std::uint64_t seq : 48 = 0;
  std::uint64_t dst : 16 = 0;  // kInject: destination rank; otherwise 0
  std::uint32_t bytes = 0;    // kInject: payload size; otherwise 0
  std::uint16_t rank = 0;     // rank whose ring holds the record
  HopKind kind = HopKind::kInject;
  MsgOp op = MsgOp::kPut;     // meaningful on kInject only
};
static_assert(sizeof(HopRecord) == 32, "hop records are 32-byte fixed");

class MsgTrace {
 public:
  MsgTrace(int nranks, const ObsParams& params);
  MsgTrace(const MsgTrace&) = delete;
  MsgTrace& operator=(const MsgTrace&) = delete;

  int nranks() const { return static_cast<int>(lanes_.size()); }
  std::uint64_t sample_every() const { return sample_every_; }

  /// Injection-site entry point: counts the injection, decides sampling, and
  /// on a sampled message records the kInject hop and returns its fresh id.
  /// Returns 0 (trace nothing downstream) when the message is not sampled.
  MsgId begin(int rank, MsgOp op, int dst_rank, std::uint32_t bytes, Time t);

  /// Appends a hop for a sampled message. Callers guard with `if (id)`.
  void hop(MsgId id, int rank, HopKind kind, Time t);

  /// Optional host-time profiler: begin()/hop() charge their (tiny) record
  /// cost to Phase::kObs so the recorder's self-overhead budget covers them.
  void set_profiler(Profiler* p) { profiler_ = p; }

  /// Perfetto flow id for a sampled message: the id under a high bit, so a
  /// flow id is never 0, yet exact in a double (< 2^53) so JSON round-trips
  /// losslessly.
  static std::uint64_t flow_id(MsgId id) { return (1ull << 52) | id; }

  // --- Introspection --------------------------------------------------------

  std::uint64_t injections(int rank) const;
  std::uint64_t sampled(int rank) const;
  std::uint64_t dropped(int rank) const;  // hop records lost to ring wrap
  std::uint64_t total_hops() const;

  // --- Analysis -------------------------------------------------------------

  struct MsgSummary {
    MsgId id = 0;
    MsgOp op = MsgOp::kPut;
    int src = 0;
    int dst = 0;
    std::uint32_t bytes = 0;
    Time t_begin = 0;
    Time t_end = 0;
    bool complete = false;  // kInject survived the ring (decomposable)
    std::array<Time, kNumCats> cat{};
    std::vector<HopRecord> hops;  // by time, then record order

    Time latency() const { return t_end - t_begin; }
    Time cat_sum() const;
  };

  /// Groups surviving hop records by message, orders them by time and then
  /// record order, and runs the later-hop decomposition. Sorted by t_begin,
  /// then id.
  std::vector<MsgSummary> summarize() const;

  struct CritPath {
    Time t_begin = 0;
    Time t_end = 0;
    std::array<Time, kNumCats> cat{};   // partitions [t_begin, t_end]
    std::vector<MsgId> messages;        // causal order (earliest first)
    std::vector<Time> per_rank;         // same partition, by rank
    Time span() const { return t_end - t_begin; }
    Time cat_sum() const;
  };

  /// Backward walk from the latest CPU-side hop (see header comment) over
  /// `msgs`, this trace's summarize().
  CritPath critical_path(const std::vector<MsgSummary>& msgs) const;

  /// The fabric's lanes as msgtrace.json records them: each lane's LogGP
  /// row, and which row a message of `bytes` from `src` to `dst` used.
  struct FabricLanes {
    struct Row {
      const char* name;
      Time L;
      Time g;
      double G_ps_per_byte;
    };
    std::vector<Row> rows;
    std::function<std::size_t(int src, int dst, std::uint32_t bytes)> of;
  };

  /// narma.msgtrace.v1 document; all times integer picoseconds. The
  /// header carries the "lanes" table and each complete message the "lane"
  /// it used.
  std::string to_json(const FabricLanes& lanes) const;

 private:
  struct Lane {
    std::vector<HopRecord> ring;   // grows to capacity, then wraps
    std::size_t capacity = 0;
    std::size_t head = 0;          // next overwrite slot once wrapped
    std::uint64_t injections = 0;
    std::uint64_t sampled = 0;
    std::uint64_t dropped = 0;
    std::uint64_t next_seq = 0;
  };

  void append(Lane& lane, HopRecord rec);
  /// All surviving records of `lane`, oldest first.
  std::vector<HopRecord> lane_records(const Lane& lane) const;

  std::vector<Lane> lanes_;
  std::uint64_t next_hop_seq_ = 0;  // HopRecord::seq of the next record
  std::uint64_t sample_every_;
  Profiler* profiler_ = nullptr;
};

}  // namespace narma::obs
