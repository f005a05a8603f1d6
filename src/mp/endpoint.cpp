#include "mp/endpoint.hpp"

#include <algorithm>
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
  for (const std::uint32_t kind : {msgkind::kEager, msgkind::kRts})
    router_.register_kind(kind, [this](net::NetMsg&& m) {
      arrive({.is_rts = m.kind == msgkind::kRts,
              .src = m.src,
              .tag = static_cast<int>(m.h0),
              .bytes = m.h1,
              .send_op_id = m.h2,
              .payload = std::move(m.payload),
              .time = m.time,
              .msg = m.msg});
    });
  if (params_.async_progression) {
    // The progression agent reacts at CTS delivery; the protocol CPU cost
    // is still charged to the sender's clock (stolen cycles).
    router_.register_async_kind(msgkind::kCts, [this](net::NetMsg&& m) {
      handle_cts(m, m.time + params_.o_rts);
    });
  } else {
    router_.register_kind(msgkind::kCts, [this](net::NetMsg&& m) {
      router_.nic().ctx().advance_to(m.time);
      handle_cts(m, router_.nic().ctx().now() + params_.o_rts);
    });
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

void Endpoint::check_envelope(const char* op, int peer, int tag,
                              bool wildcards) const {
  NARMA_CHECK((wildcards && peer == kAnySource) ||
              (peer >= 0 && peer < nranks()))
      << op << ": bad " << (wildcards ? "source " : "destination ") << peer
      << " (rank " << rank() << " of " << nranks() << ")";
  NARMA_CHECK((wildcards && tag == kAnyTag) || (tag >= 0 && tag < kTagLimit))
      << op << ": tag " << tag << " out of range [0, " << kTagLimit
      << ") (rank " << rank() << ")";
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
  check_envelope("isend", dst, tag, /*wildcards=*/false);
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
  req->bytes = bytes;
  req->sbuf = buf;

  if (dst == rank()) {
    // Self-send: stage the payload like an eager message to self.
    ctx.advance(copy_cost(params_, bytes));
    if (mid) {
      // No wire leg: the staged copy is both issue and delivery.
      mt->hop(mid, rank(), obs::HopKind::kIssue, ctx.now());
      mt->hop(mid, rank(), obs::HopKind::kDeliver, ctx.now());
    }
    const auto* staged = static_cast<const std::byte*>(buf);
    arrive({.src = rank(),
            .tag = tag,
            .bytes = bytes,
            .payload = std::vector<std::byte>(staged, staged + bytes),
            .time = ctx.now(),
            .msg = mid});
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
    hold_in_flight(req);
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
  check_envelope("irecv", src, tag, /*wildcards=*/true);
  router_.nic().ctx().advance(params_.o_recv_post);

  auto req = std::make_shared<detail::ReqState>();
  req->kind = detail::ReqKind::kRecv;
  req->bytes = capacity;
  req->rbuf = buf;
  c_recvs_.inc();

  // First look at already-arrived unexpected messages (oldest first).
  router_.progress();
  if (detail::Unexpected* u =
          unexpected_.find(detail::EnvelopeKey::of(src, tag))) {
    const detail::Unexpected arrived = std::move(*u);
    unexpected_.erase(u);
    match(req, arrived);
  } else {
    posted_.insert(detail::Posted{src, tag, req});
  }
  sample_queue_depths();
  return req;
}

void Endpoint::arrive(detail::Unexpected&& u) {
  detail::Posted* p = posted_.find(detail::EnvelopeKey::of(u.src, u.tag));
  if (!p) {
    unexpected_.insert(std::move(u));
  } else {
    const Request req = std::move(p->req);
    posted_.erase(p);
    match(req, u);
  }
  sample_queue_depths();
}

void Endpoint::match(const Request& req, const detail::Unexpected& u) {
  detail::ReqState& r = *req;
  auto& ctx = router_.nic().ctx();
  ctx.advance(params_.o_match);
  NARMA_CHECK(u.bytes <= r.bytes)
      << (u.is_rts ? "rendezvous" : "eager") << " message of " << u.bytes
      << " bytes overflows receive buffer of " << r.bytes << " (rank "
      << rank() << ", tag " << u.tag << ")";
  r.status = Status{u.src, u.tag, u.bytes};
  if (u.is_rts) {
    ctx.advance(params_.o_rts);
    r.rdzv_key = router_.nic().register_memory(r.rbuf, u.bytes);
    r.data_arrival.issued = 1;
  } else {
    ctx.advance_to(u.time);
    // Receiver-side copy out of the eager buffer.
    ctx.advance(copy_cost(params_, u.bytes));
    if (u.bytes) std::memcpy(r.rbuf, u.payload.data(), u.bytes);
    r.done = true;
  }
  if (u.msg) {
    // The envelope has matched; a rendezvous still has its CTS/DATA legs.
    r.msg = u.msg;
    if (auto* mt = router_.nic().fabric().msgtrace())
      mt->hop(u.msg, rank(), obs::HopKind::kMatchHit, ctx.now());
  }
  if (!u.is_rts) return;
  net::NetMsg m;
  m.kind = msgkind::kCts;
  m.h0 = u.send_op_id;
  m.h1 = r.rdzv_key;
  m.msg = u.msg;
  // Receiver-side delivery tracker, incremented by the target NIC when the
  // payload commits (hold_in_flight keeps the ReqState alive till then).
  // Simulator license: in a real system this is the memory handle's
  // completion event.
  m.h2 = reinterpret_cast<std::uint64_t>(&r.data_arrival);
  router_.nic().send_msg(u.src, std::move(m));
  hold_in_flight(req);
}

void Endpoint::hold_in_flight(Request req) {
  std::erase_if(in_flight_, [this](const Request& r) {
    const bool landed = r->kind == detail::ReqKind::kRecv
                            ? r->data_arrival.all_done()
                            : r->cts_received && r->put_pending.all_done();
    if (landed && r.use_count() == 1) is_complete(*r);  // dropped: finalize
    return landed;
  });
  in_flight_.push_back(std::move(req));
}

// --- Incoming message handlers ---------------------------------------------------

void Endpoint::handle_cts(const net::NetMsg& m, Time start) {
  const auto it = std::ranges::find(
      in_flight_, m.h0, [](const Request& r) { return r->send_op_id; });
  NARMA_CHECK(it != in_flight_.end() && !(*it)->cts_received)
      << "CTS for unknown send op " << m.h0 << " at rank " << rank();
  detail::ReqState& req = **it;

  router_.nic().ctx().advance(params_.o_rts);
  req.cts_received = true;
  if (m.msg)
    if (auto* mt = router_.nic().fabric().msgtrace())
      mt->hop(m.msg, rank(), obs::HopKind::kIssue, start);
  // RDMA the payload straight into the receiver's registered buffer; the
  // receiver's NIC raises its delivery completion when the data commits.
  net::NotifyAttr attr;
  attr.remote_delivered = reinterpret_cast<net::PendingOps*>(m.h2);
  attr.msg = m.msg;
  router_.nic().put_at(start, m.src, static_cast<net::MemKey>(m.h1), 0,
                       req.sbuf, req.bytes, attr, &req.put_pending);
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
  check_envelope("iprobe", src, tag, /*wildcards=*/true);
  router_.progress();
  const detail::Unexpected* u =
      unexpected_.find(detail::EnvelopeKey::of(src, tag));
  if (u && status) *status = Status{u->src, u->tag, u->bytes};
  return u != nullptr;
}

Status Endpoint::probe(int src, int tag) {
  check_envelope("probe", src, tag, /*wildcards=*/true);
  Status st;
  router_.wait_progress([&] { return iprobe(src, tag, &st); }, "mp-probe");
  return st;
}

}  // namespace narma::mp
