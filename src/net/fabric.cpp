#include "net/fabric.hpp"

#include <string>

#include "net/nic.hpp"
#include "obs/journal.hpp"
#include "obs/msgtrace.hpp"

namespace narma::net {

Fabric::Fabric(sim::Engine& engine, FabricParams params,
               obs::Registry* metrics)
    : engine_(engine), params_(std::move(params)), metrics_(metrics) {
  NARMA_CHECK(params_.ranks_per_node >= 1)
      << "FabricParams::ranks_per_node must be >= 1, got "
      << params_.ranks_per_node
      << " (0 would divide-by-zero the node map)";
  const auto n = static_cast<std::size_t>(engine_.nranks());
  rows_.resize(n);

  node_of_.resize(n);
  for (std::size_t r = 0; r < n; ++r)
    node_of_[r] = static_cast<int>(r) / params_.ranks_per_node;

  if (metrics_) {
    // Only the lanes some pair can use are registered: node_of_ is
    // nondecreasing, so an inter-node pair exists iff the ends differ.
    static const char* kOpNames[kNumTransports] = {
        "net.shm_ops", "net.fma_ops", "net.bte_ops"};
    static const char* kByteNames[kNumTransports] = {
        "net.shm_bytes", "net.fma_bytes", "net.bte_bytes"};
    const bool spans_nodes = node_of_.front() != node_of_.back();
    rank_metrics_.resize(n);
    for (int r = 0; r < engine_.nranks(); ++r) {
      RankNetMetrics& m = rank_metrics_[static_cast<std::size_t>(r)];
      for (int t = 0; t < kNumTransports; ++t) {
        if (t != static_cast<int>(Transport::kShm) && !spans_nodes) continue;
        m.ops[t] = metrics_->counter(kOpNames[t], r);
        m.bytes[t] = metrics_->counter(kByteNames[t], r);
      }
      m.notifs[0] = metrics_->counter("net.shm_notifs", r);
      if (spans_nodes) m.notifs[1] = metrics_->counter("net.aries_notifs", r);
      m.queue_delay = metrics_->histogram("net.chan_queue_ns", r);
    }
  }
  nics_.reserve(n);
  for (int r = 0; r < engine_.nranks(); ++r)
    nics_.push_back(std::make_unique<Nic>(*this, engine_.rank(r)));
  faults_ = std::make_unique<FaultInjector>(params_.faults, engine_.nranks());
  // Credits are sized to the *rounded* capacities the ring buffers actually
  // allocate, so backpressure engages exactly when a queue would fill.
  std::array<std::size_t, FlowControl::kNumQueues> caps{};
  if (!nics_.empty()) {
    caps[static_cast<int>(FlowControl::Queue::kDestCq)] =
        nics_[0]->dest_cq().capacity();
    caps[static_cast<int>(FlowControl::Queue::kShmRing)] =
        nics_[0]->shm_ring().capacity();
    caps[static_cast<int>(FlowControl::Queue::kMailbox)] =
        nics_[0]->mailbox().capacity();
  }
  flow_ = std::make_unique<FlowControl>(params_.faults, engine_.nranks(), caps);
}

Fabric::~Fabric() = default;

Nic& Fabric::nic(int rank) {
  NARMA_CHECK(rank >= 0 && rank < nranks()) << "rank " << rank;
  return *nics_[static_cast<std::size_t>(rank)];
}

Time Fabric::reserve_transfer(int src, int dst, Time t_issue,
                              std::size_t bytes, Transport transport,
                              ChannelClass cls, std::uint64_t msg) {
  obs::PhaseScope scope(profiler_, obs::Phase::kTransfer);
  const TransportTiming& tt = timing(transport);
  Channel& c = chan(src, dst, cls);
  // Fault-free runs take exactly one iteration with no injector draws: the
  // arithmetic below is then identical to the pre-fault-model fabric (the
  // bit-identity property tests pin this down).
  FaultInjector* fi = faults_->enabled() ? faults_.get() : nullptr;
  Time issue = t_issue;
  Time deliver = 0;
  for (int attempt = 0;; ++attempt) {
    FaultInjector::TransferFaults f;
    if (fi) f = fi->next_transfer(src);
    if (f.stall) {
      // Transient NIC stall: the channel is held busy before this injection.
      c.next_free = std::max(c.next_free, issue) + f.stall;
      ++counters_.nic_stalls;
      if (journal_)
        journal_->append(obs::JournalKind::kFaultStall, issue, src, dst,
                         static_cast<std::uint64_t>(f.stall));
    }
    const Time start = std::max(issue, c.next_free);
    const Time serialization =
        tt.g +
        static_cast<Time>(tt.G_ps_per_byte * static_cast<double>(bytes));
    const Time inject_end = start + serialization;
    c.next_free = inject_end;
    deliver = inject_end + tt.L + f.extra_delay;
    if (f.extra_delay > 0 && journal_)
      journal_->append(obs::JournalKind::kFaultJitter, inject_end, src, dst,
                       static_cast<std::uint64_t>(f.extra_delay));
    if (fi) {
      // FIFO clamp: delay jitter must not reorder a channel. Consumers rely
      // on in-order delivery (a notification issued after its payload must
      // not arrive first), so a jittered flight pushes back everything
      // serialized behind it. Never taken on the fault-free path, which
      // stays bit-identical to the pre-fault-model fabric.
      if (deliver <= c.last_deliver) deliver = c.last_deliver + 1;
      c.last_deliver = deliver;
    }
    counters_.bytes_on_wire += bytes;
    if (!rank_metrics_.empty()) {
      RankNetMetrics& m = rank_metrics_[static_cast<std::size_t>(src)];
      const int t = static_cast<int>(transport);
      m.ops[t].inc();
      m.bytes[t].inc(bytes);
      // Queueing delay: how long the injection waited for the channel.
      m.queue_delay.record_time(start - issue);
    }
    // A drop plan that outlives the budget is fatal, like the other two
    // bounded-retry paths — delivering the flight anyway would silently
    // forgive the loss the seed asked for.
    NARMA_CHECK(!f.drop || attempt < params_.faults.max_retries)
        << "retransmit retry budget exhausted after "
        << params_.faults.max_retries << " retries: rank " << src << " -> "
        << dst << " (" << bytes
        << " B) — every flight of this transfer was dropped; lower "
           "FaultParams::drop_rate or raise FaultParams::max_retries";
    if (!f.drop) {
      // Channel-stage hops only for the flight that actually arrives; the
      // dropped flights are summarized by their kRetry hops.
      if (msg && msgtrace_) {
        msgtrace_->hop(msg, src, obs::HopKind::kChanStart, start);
        msgtrace_->hop(msg, src, obs::HopKind::kGapEnd, start + tt.g);
        msgtrace_->hop(msg, src, obs::HopKind::kSerEnd, inject_end);
      }
      break;
    }
    // Dropped in flight: the source NIC detects the loss at the would-be
    // delivery time and retransmits after a backoff.
    ++counters_.drops;
    ++counters_.retries;
    if (journal_)
      journal_->append(obs::JournalKind::kFaultDrop, deliver, src, dst,
                       static_cast<std::uint64_t>(bytes),
                       static_cast<std::uint64_t>(attempt));
    issue = deliver + params_.faults.backoff(attempt);
    if (msg && msgtrace_)
      msgtrace_->hop(msg, src, obs::HopKind::kRetry, issue);
  }
  return deliver;
}

}  // namespace narma::net
