// The simulated interconnect.
//
// A Fabric owns one Nic per rank and the per-(source, destination) channel
// state used to serialize injections, kept per source rank in a row (a
// SmallMap) of the destinations it has used: a rank talks to a few dozen
// peers at most whatever the rank count, so state is O(peers) per rank and
// a lookup scans one short row. Intra-node pairs use the shared-memory
// lane; inter-node pairs use Aries FMA below FabricParams::aries
// .fma_bte_threshold and BTE at or above it (the paper's Table I).
//
// Transfers are charged the LogGP costs of their lane: a transfer of b
// bytes issued at local time t on a channel whose previous injection ends
// at time f starts at max(t, f), occupies the channel for g + G*b, and is
// delivered L later. Because each channel is only ever
// injected into in nondecreasing virtual time, deliveries on a channel are
// FIFO — the in-order guarantee of deterministically routed fabrics that
// the paper's notification ordering relies on.
//
// Channels come in two classes: kData carries rank-issued traffic (puts,
// control messages, eager payloads) and kResp carries NIC-generated
// responses (get/atomic replies), mirroring the request/response virtual
// channels of real RDMA networks. Rank-issued traffic per channel is
// injected in the issuing rank's program order; responses are generated in
// global event order — both are monotone in virtual time, preserving the
// FIFO invariant.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/faults.hpp"
#include "net/params.hpp"
#include "net/types.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "sim/engine.hpp"

namespace narma::obs {
class Journal;
class MsgTrace;
}

namespace narma::net {

class Nic;

/// A map over the few keys one rank uses (peer ranks, message kinds):
/// (key, V) entries in first-use order, found by a linear scan over the
/// keys, which sit in their own array, after a check of the last key used.
template <class V>
class SmallMap {
 public:
  /// The entry of `key`, value-initialized on first use. References stay
  /// valid until the next first use of a key in this map.
  V& operator[](int key) {
    if (last_ < keys_.size() && keys_[last_] == key) return values_[last_];
    for (std::size_t i = 0; i < keys_.size(); ++i)
      if (keys_[i] == key) return values_[last_ = i];
    last_ = keys_.size();
    keys_.push_back(key);
    return values_.emplace_back();
  }

  /// The entry of `key`, or nullptr if this map never used it.
  const V* find(int key) const {
    for (std::size_t i = 0; i < keys_.size(); ++i)
      if (keys_[i] == key) return &values_[i];
    return nullptr;
  }

  /// Every entry, in first-use order.
  std::span<V> values() { return values_; }

 private:
  std::vector<int> keys_;
  std::vector<V> values_;
  std::size_t last_ = 0;  // the last lookup's entry; callers tend to repeat it
};

class Fabric {
 public:
  enum class ChannelClass { kData = 0, kResp = 1 };

  /// `metrics` (optional) receives per-rank transfer counters and queueing
  /// delay histograms; the per-rank NICs also report their queue depths
  /// into it. Must outlive the fabric.
  Fabric(sim::Engine& engine, FabricParams params,
         obs::Registry* metrics = nullptr);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Engine& engine() { return engine_; }
  const FabricParams& params() const { return params_; }
  int nranks() const { return engine_.nranks(); }

  Nic& nic(int rank);

  /// Node of one rank (precomputed at construction, where ranks_per_node
  /// is validated — no division on the hot path, no divide-by-zero).
  int node_of(int rank) const {
    return node_of_[static_cast<std::size_t>(rank)];
  }

  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

  /// Lane of a transfer of `bytes` from `src` to `dst`: shm within a node,
  /// else FMA below the FMA/BTE threshold and BTE at or above it.
  Transport transport_for(int src, int dst, std::size_t bytes) const {
    if (same_node(src, dst)) return Transport::kShm;
    return bytes >= params_.aries.fma_bte_threshold ? Transport::kBte
                                                    : Transport::kFma;
  }

  /// LogGP row of one lane.
  const TransportTiming& timing(Transport lane) const {
    return params_.timing(lane);
  }

  /// Per-rank notification-delivery counter hook, by the pair the
  /// notification crossed: net.shm_notifs within a node, net.aries_notifs
  /// across nodes. Called by the NICs at commit time.
  void note_notify(int rank, bool intra_node) {
    if (!rank_metrics_.empty())
      rank_metrics_[static_cast<std::size_t>(rank)]
          .notifs[intra_node ? 0 : 1]
          .inc();
  }

  /// Charges the channel-serialization and LogGP costs of a transfer of
  /// `bytes` from `src` to `dst` issued at virtual time `t_issue` and
  /// returns its delivery time — without scheduling anything. Callers that
  /// need more than the delivery argument at that instant (e.g. the NIC's
  /// shm-notification path) post their own event with it. A nonzero
  /// `msg` records the channel-stage hops (chan_start / gap_end / ser_end)
  /// for that sampled message; delivery hops are recorded at commit sites.
  Time reserve_transfer(int src, int dst, Time t_issue, std::size_t bytes,
                        Transport transport, ChannelClass cls,
                        std::uint64_t msg = 0);

  /// Schedules a channel-serialized transfer of `bytes` from `src` to `dst`
  /// issued at virtual time `t_issue`; `on_deliver` runs at the delivery
  /// time (passed as argument). Returns the delivery time. Templated so the
  /// delivery closure flows into the engine's inline event storage without
  /// an intermediate std::function allocation.
  template <class F>
  Time schedule_transfer(int src, int dst, Time t_issue, std::size_t bytes,
                         Transport transport, ChannelClass cls, F&& on_deliver,
                         std::uint64_t msg = 0) {
    const Time deliver =
        reserve_transfer(src, dst, t_issue, bytes, transport, cls, msg);
    engine_.post(deliver,
                 [fn = std::forward<F>(on_deliver), deliver] { fn(deliver); });
    return deliver;
  }

  FabricCounters& counters() { return counters_; }
  const FabricCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = FabricCounters{}; }

  /// The seeded fault plan (inert when all rates are zero).
  FaultInjector& faults() { return *faults_; }
  /// Sender-side delivery-queue credits (inert under OverflowPolicy::kFatal).
  FlowControl& flow() { return *flow_; }

  // --- Fail-stop rank state (ft layer; DESIGN.md §15) ----------------------
  //
  // A failed rank's channels stay priced (the wire does not know the host
  // died) but deliveries into it are swallowed by the NIC as dead drops
  // instead of aborting on an unconsumed queue. The fast path is one integer
  // compare: with no rank ever down, rank_up() never touches the flag array,
  // so fault-free runs stay bit-identical and branch-predictable.

  /// False only while `r` is marked failed.
  bool rank_up(int r) const {
    return down_count_ == 0 || !rank_down_[static_cast<std::size_t>(r)];
  }

  void set_rank_down(int r) {
    if (rank_down_.empty())
      rank_down_.assign(static_cast<std::size_t>(nranks()), 0);
    if (!rank_down_[static_cast<std::size_t>(r)]) {
      rank_down_[static_cast<std::size_t>(r)] = 1;
      ++down_count_;
    }
  }

  void set_rank_up(int r) {
    if (!rank_down_.empty() && rank_down_[static_cast<std::size_t>(r)]) {
      rank_down_[static_cast<std::size_t>(r)] = 0;
      --down_count_;
    }
  }

  /// Optional metrics registry (attached at construction).
  obs::Registry* metrics() const { return metrics_; }

  /// Optional causal message trace; nullptr (default) disables all hop
  /// recording (one branch per hook, never advances virtual time).
  obs::MsgTrace* msgtrace() const { return msgtrace_; }
  void set_msgtrace(obs::MsgTrace* mt) { msgtrace_ = mt; }

  /// Optional anomaly journal (src/obs/journal): the fault injector's
  /// transfer faults and the NICs' backpressure episodes append typed
  /// records here. nullptr (default) disables — one branch per site.
  obs::Journal* journal() const { return journal_; }
  void set_journal(obs::Journal* j) { journal_ = j; }

  /// Optional host-time phase profiler (DESIGN.md §12): the fabric opens a
  /// kTransfer scope around channel reservation, and the per-rank layers
  /// reach it through here for their own scopes.
  obs::Profiler* profiler() const { return profiler_; }
  void set_profiler(obs::Profiler* p) { profiler_ = p; }

 private:
  struct Channel {
    Time next_free = 0;
    // Latest delivery handed out on this channel; only consulted when fault
    // injection is enabled, where delay jitter would otherwise let a later
    // flight overtake an earlier one. Channels model reliable *ordered*
    // links, so a delayed head-of-line delays everything behind it.
    Time last_deliver = 0;
  };

  /// Per-source-rank transfer metrics, lane arrays indexed by Transport.
  /// Lanes no pair can use stay disengaged no-op handles.
  struct RankNetMetrics {
    obs::Counter ops[kNumTransports];    // net.<lane>_ops
    obs::Counter bytes[kNumTransports];  // net.<lane>_bytes
    obs::Counter notifs[2];              // net.shm_notifs, net.aries_notifs
    obs::Histogram queue_delay;  // net.chan_queue_ns (injection serialization)
  };

  Channel& chan(int src, int dst, ChannelClass cls) {
    return rows_[static_cast<std::size_t>(src)][dst]
                [static_cast<std::size_t>(cls)];
  }

  sim::Engine& engine_;
  FabricParams params_;
  std::vector<SmallMap<std::array<Channel, 2>>> rows_;  // [src][dst][class]
  std::vector<int> node_of_;  // rank -> node, validated at construction
  std::vector<std::unique_ptr<Nic>> nics_;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<FlowControl> flow_;  // after nics_: sized to their queues
  FabricCounters counters_;
  obs::Registry* metrics_ = nullptr;
  obs::MsgTrace* msgtrace_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  obs::Journal* journal_ = nullptr;
  std::vector<RankNetMetrics> rank_metrics_;  // one per rank; empty if off
  std::vector<std::uint8_t> rank_down_;  // lazily sized on first failure
  int down_count_ = 0;
};

}  // namespace narma::net
