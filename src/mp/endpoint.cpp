#include "mp/endpoint.hpp"

#include <cstring>

#include "obs/msgtrace.hpp"

namespace narma::mp {

namespace {
Time copy_cost(const MpParams& p, std::size_t bytes) {
  return static_cast<Time>(p.copy_ps_per_byte * static_cast<double>(bytes));
}
}  // namespace

Endpoint::Endpoint(net::MsgRouter& router, MpParams params)
    : router_(router), params_(params) {
  router_.register_kind(msgkind::kEager,
                        [this](net::NetMsg&& m) { handle_eager(std::move(m)); });
  router_.register_kind(msgkind::kRts,
                        [this](net::NetMsg&& m) { handle_rts(std::move(m)); });
  if (params_.async_progression) {
    router_.register_async_kind(
        msgkind::kCts, [this](net::NetMsg&& m) { handle_cts_async(std::move(m)); });
  } else {
    router_.register_kind(
        msgkind::kCts, [this](net::NetMsg&& m) { handle_cts(std::move(m)); });
  }
}

void Endpoint::bind_metrics(obs::Registry& reg) {
  const int r = rank();
  c_sends_eager_ = reg.counter("mp.sends_eager", r);
  c_sends_rdzv_ = reg.counter("mp.sends_rdzv", r);
  c_recvs_ = reg.counter("mp.recvs", r);
  g_unexpected_depth_ = reg.gauge("mp.unexpected_depth", r);
  g_posted_depth_ = reg.gauge("mp.posted_depth", r);
}

void Endpoint::sample_queue_depths() {
  const Time now = router_.nic().ctx().now();
  g_unexpected_depth_.set(static_cast<std::int64_t>(unexpected_.size()), now);
  g_posted_depth_.set(static_cast<std::int64_t>(posted_.size()), now);
}

// --- Send path ---------------------------------------------------------------

Request Endpoint::isend(const void* buf, std::size_t bytes, int dst, int tag) {
  // Host-time attribution: sender-side staging / protocol setup is transfer
  // plumbing (the fabric's channel math opens its own kTransfer scope too).
  obs::PhaseScope prof_scope(router_.nic().fabric().profiler(),
                             obs::Phase::kTransfer);
  NARMA_CHECK(tag >= 0 && tag < kMaxUserTag + 0x4000) << "tag out of range";
  NARMA_CHECK(dst >= 0 && dst < nranks()) << "bad destination " << dst;
  auto& ctx = router_.nic().ctx();
  obs::MsgTrace* mt = router_.nic().fabric().msgtrace();
  obs::MsgId mid = 0;
  if (mt) {
    const obs::MsgOp op = (dst == rank() || bytes <= params_.eager_threshold)
                              ? obs::MsgOp::kEagerSend
                              : obs::MsgOp::kRdzvSend;
    mid = mt->begin(rank(), op, dst, static_cast<std::uint32_t>(bytes),
                    ctx.now());
  }
  ctx.advance(params_.o_send);

  auto req = std::make_shared<detail::ReqState>();
  req->peer = dst;
  req->tag = tag;
  req->bytes = bytes;
  req->sbuf = buf;

  if (dst == rank()) {
    // Self-send: stage the payload like an eager message to self.
    ctx.advance(copy_cost(params_, bytes));
    detail::Unexpected u;
    u.src = rank();
    u.tag = tag;
    u.bytes = bytes;
    u.payload.resize(bytes);
    if (bytes) std::memcpy(u.payload.data(), buf, bytes);
    u.time = ctx.now();
    u.msg = mid;
    if (mid) {
      // No wire leg: the staged copy is both issue and delivery.
      mt->hop(mid, rank(), obs::HopKind::kIssue, ctx.now());
      mt->hop(mid, rank(), obs::HopKind::kDeliver, ctx.now());
    }
    unexpected_.push_back(std::move(u));
    match_newest_unexpected();
    sample_queue_depths();
    req->kind = detail::ReqKind::kSendEager;
    req->done = true;
    c_sends_eager_.inc();
    return req;
  }

  if (bytes <= params_.eager_threshold) {
    req->kind = detail::ReqKind::kSendEager;
    c_sends_eager_.inc();
    // Sender-side staging copy into NIC buffers; after it, the user buffer
    // is reusable and the send is locally complete (buffered semantics).
    ctx.advance(copy_cost(params_, bytes));
    if (mid) mt->hop(mid, rank(), obs::HopKind::kIssue, ctx.now());
    net::NetMsg m;
    m.kind = msgkind::kEager;
    m.h0 = static_cast<std::uint64_t>(tag);
    m.h1 = bytes;
    m.payload.resize(bytes);
    if (bytes) std::memcpy(m.payload.data(), buf, bytes);
    m.msg = mid;
    router_.nic().send_msg(dst, std::move(m));
    req->done = true;
  } else {
    req->kind = detail::ReqKind::kSendRdzv;
    c_sends_rdzv_.inc();
    req->send_op_id = next_op_id_++;
    rdzv_sends_[req->send_op_id] = req;
    if (mid) mt->hop(mid, rank(), obs::HopKind::kIssue, ctx.now());
    net::NetMsg m;
    m.kind = msgkind::kRts;
    m.h0 = static_cast<std::uint64_t>(tag);
    m.h1 = bytes;
    m.h2 = req->send_op_id;
    m.msg = mid;
    router_.nic().send_msg(dst, std::move(m));
  }
  return req;
}

// --- Receive path --------------------------------------------------------------

Request Endpoint::irecv(void* buf, std::size_t capacity, int src, int tag) {
  // Receive posting + unexpected-queue matching is envelope matching work.
  obs::PhaseScope prof_scope(router_.nic().fabric().profiler(),
                             obs::Phase::kMatch);
  NARMA_CHECK(src == kAnySource || (src >= 0 && src < nranks()));
  auto& ctx = router_.nic().ctx();
  ctx.advance(params_.o_recv_post);

  auto req = std::make_shared<detail::ReqState>();
  req->kind = detail::ReqKind::kRecv;
  req->peer = src;
  req->tag = tag;
  req->bytes = capacity;
  req->rbuf = buf;
  c_recvs_.inc();

  // First look at already-arrived unexpected messages (oldest first).
  router_.progress();
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!envelope_matches(src, tag, it->src, it->tag)) continue;
    ctx.advance(params_.o_match);
    if (it->is_rts) {
      answer_rts(req, it->src, it->tag, it->bytes, it->send_op_id, it->msg);
    } else {
      deliver_eager(*req, it->src, it->tag, std::move(it->payload), it->time,
                    it->msg);
    }
    unexpected_.erase(it);
    sample_queue_depths();
    return req;
  }

  posted_.push_back(req);
  sample_queue_depths();
  return req;
}

void Endpoint::deliver_eager(detail::ReqState& r, int src, int tag,
                             std::vector<std::byte>&& payload, Time arrival,
                             std::uint64_t msg) {
  NARMA_CHECK(payload.size() <= r.bytes)
      << "eager message of " << payload.size()
      << " bytes overflows receive buffer of " << r.bytes << " (rank "
      << rank() << ", tag " << tag << ")";
  auto& ctx = router_.nic().ctx();
  ctx.advance_to(arrival);
  // Receiver-side copy out of the eager buffer.
  ctx.advance(copy_cost(params_, payload.size()));
  if (!payload.empty()) std::memcpy(r.rbuf, payload.data(), payload.size());
  r.status = Status{src, tag, payload.size()};
  r.done = true;
  if (msg) {
    r.msg = msg;
    if (auto* mt = router_.nic().fabric().msgtrace())
      mt->hop(msg, rank(), obs::HopKind::kMatchHit, ctx.now());
  }
}

void Endpoint::answer_rts(const Request& req, int src, int tag,
                          std::size_t bytes, std::uint64_t send_op_id,
                          std::uint64_t msg) {
  detail::ReqState& r = *req;
  NARMA_CHECK(bytes <= r.bytes)
      << "rendezvous message of " << bytes
      << " bytes overflows receive buffer of " << r.bytes << " (rank "
      << rank() << ", tag " << tag << ")";
  auto& ctx = router_.nic().ctx();
  ctx.advance(params_.o_rts);
  r.status = Status{src, tag, bytes};
  r.rdzv_key = router_.nic().register_memory(r.rbuf, bytes);
  r.data_arrival.issued = 1;
  if (msg) {
    // The envelope has matched; what remains is the CTS/DATA round trip.
    r.msg = msg;
    if (auto* mt = router_.nic().fabric().msgtrace())
      mt->hop(msg, rank(), obs::HopKind::kMatchHit, ctx.now());
  }
  net::NetMsg m;
  m.kind = msgkind::kCts;
  m.h0 = send_op_id;
  m.h1 = r.rdzv_key;
  m.msg = msg;
  // Receiver-side delivery tracker, incremented by the target NIC when the
  // payload commits (the ReqState is shared_ptr-stable). Simulator license:
  // in a real system this is the memory handle's completion event.
  m.h2 = reinterpret_cast<std::uint64_t>(&r.data_arrival);
  router_.nic().send_msg(src, std::move(m));
}

void Endpoint::match_newest_unexpected() {
  if (unexpected_.empty()) return;
  detail::Unexpected& u = unexpected_.back();
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    Request& r = *it;
    if (!envelope_matches(r->peer, r->tag, u.src, u.tag)) continue;
    Request req = *it;
    posted_.erase(it);
    router_.nic().ctx().advance(params_.o_match);
    if (u.is_rts) {
      answer_rts(req, u.src, u.tag, u.bytes, u.send_op_id, u.msg);
    } else {
      deliver_eager(*req, u.src, u.tag, std::move(u.payload), u.time, u.msg);
    }
    unexpected_.pop_back();
    sample_queue_depths();
    return;
  }
}

// --- Incoming message handlers ---------------------------------------------------

void Endpoint::handle_eager(net::NetMsg&& m) {
  const int tag = static_cast<int>(m.h0);
  // Match the oldest posted receive that accepts this envelope.
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    Request& r = *it;
    if (!envelope_matches(r->peer, r->tag, m.src, tag)) continue;
    router_.nic().ctx().advance(params_.o_match);
    deliver_eager(*r, m.src, tag, std::move(m.payload), m.time, m.msg);
    posted_.erase(it);
    sample_queue_depths();
    return;
  }
  detail::Unexpected u;
  u.src = m.src;
  u.tag = tag;
  u.bytes = m.h1;
  u.payload = std::move(m.payload);
  u.time = m.time;
  u.msg = m.msg;
  unexpected_.push_back(std::move(u));
  sample_queue_depths();
}

void Endpoint::handle_rts(net::NetMsg&& m) {
  const int tag = static_cast<int>(m.h0);
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    Request& r = *it;
    if (!envelope_matches(r->peer, r->tag, m.src, tag)) continue;
    Request req = *it;
    posted_.erase(it);
    router_.nic().ctx().advance(params_.o_match);
    answer_rts(req, m.src, tag, m.h1, m.h2, m.msg);
    sample_queue_depths();
    return;
  }
  detail::Unexpected u;
  u.is_rts = true;
  u.src = m.src;
  u.tag = tag;
  u.bytes = m.h1;
  u.send_op_id = m.h2;
  u.time = m.time;
  u.msg = m.msg;
  unexpected_.push_back(std::move(u));
  sample_queue_depths();
}

void Endpoint::handle_cts(net::NetMsg&& m) {
  auto it = rdzv_sends_.find(m.h0);
  NARMA_CHECK(it != rdzv_sends_.end())
      << "CTS for unknown send op " << m.h0 << " at rank " << rank();
  Request req = it->second;
  rdzv_sends_.erase(it);

  auto& ctx = router_.nic().ctx();
  ctx.advance_to(m.time);
  ctx.advance(params_.o_rts);
  req->cts_received = true;
  if (m.msg)
    if (auto* mt = router_.nic().fabric().msgtrace())
      mt->hop(m.msg, rank(), obs::HopKind::kIssue, ctx.now());
  // RDMA the payload straight into the receiver's registered buffer; the
  // receiver's NIC raises its delivery completion when the data commits.
  net::NotifyAttr attr;
  attr.remote_delivered =
      reinterpret_cast<net::PendingOps*>(m.h2);
  attr.msg = m.msg;
  router_.nic().put(m.src, static_cast<net::MemKey>(m.h1), 0, req->sbuf,
                    req->bytes, attr, &req->put_pending);
}

void Endpoint::handle_cts_async(net::NetMsg&& m) {
  // Event-context variant: the progression agent reacts at CTS delivery
  // time instead of the sender's next progress call. The protocol CPU cost
  // is still charged to the sender's clock (stolen cycles).
  auto it = rdzv_sends_.find(m.h0);
  NARMA_CHECK(it != rdzv_sends_.end())
      << "CTS for unknown send op " << m.h0 << " at rank " << rank();
  Request req = it->second;
  rdzv_sends_.erase(it);

  router_.nic().ctx().advance(params_.o_rts);
  req->cts_received = true;
  if (m.msg)
    if (auto* mt = router_.nic().fabric().msgtrace())
      mt->hop(m.msg, rank(), obs::HopKind::kIssue, m.time + params_.o_rts);
  net::NotifyAttr attr;
  attr.remote_delivered = reinterpret_cast<net::PendingOps*>(m.h2);
  attr.msg = m.msg;
  router_.nic().put_at(m.time + params_.o_rts, m.src,
                       static_cast<net::MemKey>(m.h1), 0, req->sbuf,
                       req->bytes, attr, &req->put_pending);
}

// --- Completion ----------------------------------------------------------------

bool Endpoint::is_complete(detail::ReqState& r) {
  if (r.done) return true;
  if (r.kind == detail::ReqKind::kSendRdzv)
    return r.cts_received && r.put_pending.all_done();
  if (r.kind == detail::ReqKind::kRecv &&
      r.rdzv_key != net::kInvalidMemKey && r.data_arrival.all_done()) {
    router_.nic().deregister_memory(r.rdzv_key);
    r.rdzv_key = net::kInvalidMemKey;
    r.done = true;
    return true;
  }
  return false;
}

void Endpoint::note_wakeup(detail::ReqState& r) {
  if (!r.msg) return;
  if (auto* mt = router_.nic().fabric().msgtrace())
    mt->hop(r.msg, rank(), obs::HopKind::kWakeup, router_.nic().ctx().now());
  r.msg = 0;
}

bool Endpoint::test(const Request& req, Status* status) {
  NARMA_CHECK(req != nullptr);
  router_.progress();
  if (!is_complete(*req)) return false;
  note_wakeup(*req);
  if (status) *status = req->status;
  return true;
}

void Endpoint::wait(const Request& req, Status* status) {
  NARMA_CHECK(req != nullptr);
  router_.wait_progress([&] { return is_complete(*req); }, "mp-wait");
  note_wakeup(*req);
  if (status) *status = req->status;
}

void Endpoint::wait_all(const std::vector<Request>& reqs) {
  for (const auto& r : reqs) wait(r);
}

void Endpoint::send(const void* buf, std::size_t bytes, int dst, int tag) {
  wait(isend(buf, bytes, dst, tag));
}

void Endpoint::recv(void* buf, std::size_t capacity, int src, int tag,
                    Status* status) {
  wait(irecv(buf, capacity, src, tag), status);
}

// --- Probe ----------------------------------------------------------------------

bool Endpoint::iprobe(int src, int tag, Status* status) {
  router_.progress();
  for (const auto& u : unexpected_) {
    if (!envelope_matches(src, tag, u.src, u.tag)) continue;
    if (status) *status = Status{u.src, u.tag, u.bytes};
    return true;
  }
  return false;
}

Status Endpoint::probe(int src, int tag) {
  Status st;
  router_.wait_progress([&] { return iprobe(src, tag, &st); }, "mp-probe");
  return st;
}

}  // namespace narma::mp
