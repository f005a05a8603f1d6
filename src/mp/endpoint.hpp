// Two-sided message passing over the simulated NIC — the paper's "Message
// Passing" baseline.
//
// Protocols (paper Fig. 2b):
//  * eager      — header + payload travel in one control message into
//                 receiver-side buffering; the receiver matches and copies
//                 out. One wire transaction, two staging copies.
//  * rendezvous — RTS control message; the receiver matches, registers its
//                 buffer and answers CTS; the sender RDMA-puts the payload
//                 directly into it. The receiver completes on its NIC's
//                 delivery completion (write-with-immediate-style), the
//                 sender on the put ack. Exactly three transactions on the
//                 critical path (RTS, CTS, DATA — paper Fig. 2b), zero
//                 copies.
//
// Matching follows MPI semantics: a receive takes the oldest message its
// <source, tag> (wildcards allowed) matches, and an arrival the oldest posted
// receive that accepts it. Both queues are match indexes, the engine of NA's
// unexpected queue. Reserved tags (>= kMaxUserTag) are a match space of their
// own, like a separate communicator: kAnyTag never sees collective traffic.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/match_index.hpp"
#include "mp/params.hpp"
#include "net/router.hpp"
#include "obs/metrics.hpp"

namespace narma::mp {

namespace msgkind {
constexpr std::uint32_t kEager = 0x0101;
constexpr std::uint32_t kRts = 0x0102;
constexpr std::uint32_t kCts = 0x0103;
}  // namespace msgkind

namespace detail {

enum class ReqKind : std::uint8_t { kSendEager, kSendRdzv, kRecv };

struct ReqState {
  ReqKind kind;
  bool done = false;
  Status status;

  std::size_t bytes = 0;  // send size / recv capacity
  /// obs::MsgId of the matched incoming message (recv side); consumed by
  /// the first completion observation, which records the wakeup hop.
  std::uint64_t msg = 0;

  // recv
  void* rbuf = nullptr;
  net::MemKey rdzv_key = net::kInvalidMemKey;  // registered recv buffer
  net::PendingOps data_arrival;                // remote-delivery completion

  // send (rendezvous)
  const void* sbuf = nullptr;
  std::uint64_t send_op_id = 0;
  bool cts_received = false;
  net::PendingOps put_pending;
};

/// An arrived message (eager payload or rendezvous RTS), parked until a
/// receive matches it.
struct Unexpected {
  bool is_rts = false;
  int src = -1;
  int tag = -1;
  std::size_t bytes = 0;
  std::uint64_t send_op_id = 0;       // rendezvous only
  std::vector<std::byte> payload{};   // eager only
  Time time = 0;
  std::uint64_t msg = 0;  // obs::MsgId of the sender's operation
};

/// A posted receive: the <source, tag> shape it accepts, and its request.
struct Posted {
  int src = kAnySource;
  int tag = kAnyTag;
  std::shared_ptr<ReqState> req;
};

/// Match key of an envelope or a receive shape: reserved tags live in
/// match space 1, user tags and kAnyTag in space 0.
struct EnvelopeKey {
  static MatchKey of(int src, int tag) {
    return {tag >= kMaxUserTag ? 1u : 0u, src, tag};
  }
  template <class E>  // Unexpected or Posted
  MatchKey operator()(const E& e) const { return of(e.src, e.tag); }
};
static_assert(kAnySource == kMatchAny && kAnyTag == kMatchAny);

// Slack 0: no model reads MP's store positions (DESIGN.md §6).
using PostedIndex =
    MatchIndex<Posted, EnvelopeKey, MatchLookup::kByEnvelope, 0>;
using UnexpectedIndex =
    MatchIndex<Unexpected, EnvelopeKey, MatchLookup::kByShape, 0>;

}  // namespace detail

/// Request handle for nonblocking operations.
using Request = std::shared_ptr<detail::ReqState>;

class Endpoint {
 public:
  Endpoint(net::MsgRouter& router, MpParams params);
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  int rank() const { return router_.nic().rank(); }
  int nranks() const { return router_.nic().fabric().nranks(); }
  const MpParams& params() const { return params_; }
  net::MsgRouter& router() { return router_; }

  // --- Point-to-point ------------------------------------------------------

  Request isend(const void* buf, std::size_t bytes, int dst, int tag);
  Request irecv(void* buf, std::size_t capacity, int src, int tag);
  void send(const void* buf, std::size_t bytes, int dst, int tag);
  void recv(void* buf, std::size_t capacity, int src, int tag,
            Status* status = nullptr);

  bool test(const Request& req, Status* status = nullptr);
  void wait(const Request& req, Status* status = nullptr);
  void wait_all(const std::vector<Request>& reqs);

  /// Blocks until a matching message has arrived (without receiving it) and
  /// returns its envelope.
  Status probe(int src, int tag);
  /// Nonblocking probe.
  bool iprobe(int src, int tag, Status* status);

  // --- Introspection (tests) -----------------------------------------------

  std::size_t unexpected_count() const { return unexpected_.size(); }
  std::size_t posted_count() const { return posted_.size(); }

  /// Registers this endpoint's metric families (mp.*) with the World's
  /// registry; without it every hook stays a disengaged no-op.
  void bind_metrics(obs::Registry& reg);

 private:
  /// A CTS for one of this rank's rendezvous sends: charges o_rts and puts
  /// the payload at `start` (next progress call, or CTS delivery if async).
  void handle_cts(const net::NetMsg& m, Time start);

  /// Aborts with a diagnostic unless `peer` is a rank and `tag` a tag below
  /// kTagLimit, or (receives and probes) the matching wildcard.
  void check_envelope(const char* op, int peer, int tag, bool wildcards) const;

  /// A message arrived (off the wire, or a self-send): it completes the
  /// oldest posted receive that accepts it, or it is parked.
  void arrive(detail::Unexpected&& u);
  /// Matches `u` to the receive `req` (charges o_match): copies an eager
  /// payload out, or registers the buffer and answers an RTS with a CTS.
  void match(const Request& req, const detail::Unexpected& u);

  /// Holds a rendezvous op (a send from its RTS, a receive from its match)
  /// until the NIC's last write to it lands, handle dropped or not.
  void hold_in_flight(Request req);

  /// Completion check with rendezvous-receive finalization (deregisters the
  /// temporary memory key when the data has landed).
  bool is_complete(detail::ReqState& r);

  /// Records the consumer-wakeup hop the first time a traced receive's
  /// completion is observed by the application.
  void note_wakeup(detail::ReqState& r);

  /// Re-samples mp.unexpected_depth / mp.posted_depth after queue mutations.
  void sample_queue_depths();

  net::MsgRouter& router_;
  MpParams params_;
  std::uint64_t next_op_id_ = 1;

  detail::PostedIndex posted_;
  detail::UnexpectedIndex unexpected_;
  std::vector<Request> in_flight_;  // see hold_in_flight

  // Observability (mp.* families); disengaged handles are no-ops.
  obs::Counter c_sends_eager_;
  obs::Counter c_sends_rdzv_;
  obs::Counter c_recvs_;
  obs::Gauge g_unexpected_depth_;
  obs::Gauge g_posted_depth_;
};

}  // namespace narma::mp
