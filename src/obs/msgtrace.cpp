#include "obs/msgtrace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/assert.hpp"

namespace narma::obs {

const char* to_string(MsgOp op) {
  switch (op) {
    case MsgOp::kPut: return "put";
    case MsgOp::kPutStrided: return "put_strided";
    case MsgOp::kGet: return "get";
    case MsgOp::kAtomic: return "atomic";
    case MsgOp::kPutNotify: return "put_notify";
    case MsgOp::kPutNotifyStrided: return "put_notify_strided";
    case MsgOp::kGetNotify: return "get_notify";
    case MsgOp::kGetNotifyStrided: return "get_notify_strided";
    case MsgOp::kAtomicNotify: return "atomic_notify";
    case MsgOp::kEagerSend: return "eager_send";
    case MsgOp::kRdzvSend: return "rdzv_send";
    case MsgOp::kPscwSync: return "pscw_sync";
  }
  return "?";
}

const char* to_string(HopKind k) {
  switch (k) {
    case HopKind::kInject: return "inject";
    case HopKind::kIssue: return "issue";
    case HopKind::kChanStart: return "chan_start";
    case HopKind::kGapEnd: return "gap_end";
    case HopKind::kSerEnd: return "ser_end";
    case HopKind::kDeliver: return "deliver";
    case HopKind::kPop: return "pop";
    case HopKind::kMatchHit: return "match_hit";
    case HopKind::kWakeup: return "wakeup";
    case HopKind::kRetry: return "retry";
  }
  return "?";
}

const char* to_string(LatCat c) {
  switch (c) {
    case LatCat::kSrcOverhead: return "src_overhead";
    case LatCat::kChanQueue: return "chan_queue";
    case LatCat::kGap: return "gap";
    case LatCat::kSer: return "ser";
    case LatCat::kWire: return "wire";
    case LatCat::kBlocked: return "blocked";
    case LatCat::kMatch: return "match";
    case LatCat::kRetry: return "retry";
    case LatCat::kLocal: return "local";
    case LatCat::kCount: break;
  }
  return "?";
}

namespace {

/// The decomposition rule: an interval belongs to the category of its later
/// hop. kInject never appears as a later hop within one message. Two fault-
/// model refinements keep the telescoping identity exact under retries: an
/// interval *ending* at a kRetry hop is backoff/retry time, and so is a
/// redelivery leg — a kDeliver whose immediately-earlier hop was a kRetry.
LatCat cat_of(HopKind earlier, HopKind later) {
  switch (later) {
    case HopKind::kIssue: return LatCat::kSrcOverhead;
    case HopKind::kChanStart: return LatCat::kChanQueue;
    case HopKind::kGapEnd: return LatCat::kGap;
    case HopKind::kSerEnd: return LatCat::kSer;
    case HopKind::kDeliver:
      return earlier == HopKind::kRetry ? LatCat::kRetry : LatCat::kWire;
    case HopKind::kPop: return LatCat::kBlocked;
    case HopKind::kMatchHit: return LatCat::kMatch;
    case HopKind::kWakeup: return LatCat::kMatch;
    case HopKind::kRetry: return LatCat::kRetry;
    case HopKind::kInject: return LatCat::kLocal;
  }
  return LatCat::kLocal;
}

/// CPU-side hops mark points where a rank's *program* touched the message;
/// they anchor the cross-message edges of the critical-path walk. Channel
/// and delivery hops happen on NIC/wire time and are excluded.
bool is_cpu_hop(HopKind k) {
  switch (k) {
    case HopKind::kInject:
    case HopKind::kIssue:
    case HopKind::kPop:
    case HopKind::kMatchHit:
    case HopKind::kWakeup:
      return true;
    default:
      return false;
  }
}

Time sum_cats(const std::array<Time, kNumCats>& cat) {
  Time s = 0;
  for (Time v : cat) s += v;
  return s;
}

}  // namespace

Time MsgTrace::MsgSummary::cat_sum() const { return sum_cats(cat); }
Time MsgTrace::CritPath::cat_sum() const { return sum_cats(cat); }

MsgTrace::MsgTrace(int nranks, const ObsParams& params)
    : sample_every_(params.msgtrace_sample_every == 0
                        ? 1
                        : params.msgtrace_sample_every) {
  NARMA_CHECK(nranks >= 1) << "msgtrace needs at least one rank";
  lanes_.resize(static_cast<std::size_t>(nranks));
  for (auto& lane : lanes_) {
    lane.capacity = std::max<std::size_t>(params.msgtrace_ring_capacity, 16);
  }
}

void MsgTrace::append(Lane& lane, HopRecord rec) {
  rec.seq = next_hop_seq_++;
  if (lane.ring.size() < lane.capacity) {
    lane.ring.push_back(rec);
    return;
  }
  lane.ring[lane.head] = rec;
  lane.head = (lane.head + 1) % lane.capacity;
  ++lane.dropped;
}

MsgId MsgTrace::begin(int rank, MsgOp op, int dst_rank, std::uint32_t bytes,
                      Time t) {
  PhaseScope scope(profiler_, Phase::kObs);
  auto& lane = lanes_[static_cast<std::size_t>(rank)];
  if ((lane.injections++ % sample_every_) != 0) return 0;
  ++lane.sampled;
  const MsgId id =
      ((static_cast<MsgId>(rank) + 1) << 40) | ++lane.next_seq;
  HopRecord rec;
  rec.id = id;
  rec.t = t;
  rec.dst = static_cast<std::uint16_t>(dst_rank);
  rec.bytes = bytes;
  rec.rank = static_cast<std::uint16_t>(rank);
  rec.kind = HopKind::kInject;
  rec.op = op;
  append(lane, rec);
  return id;
}

void MsgTrace::hop(MsgId id, int rank, HopKind kind, Time t) {
  PhaseScope scope(profiler_, Phase::kObs);
  HopRecord rec;
  rec.id = id;
  rec.t = t;
  rec.rank = static_cast<std::uint16_t>(rank);
  rec.kind = kind;
  append(lanes_[static_cast<std::size_t>(rank)], rec);
}

std::uint64_t MsgTrace::injections(int rank) const {
  return lanes_[static_cast<std::size_t>(rank)].injections;
}
std::uint64_t MsgTrace::sampled(int rank) const {
  return lanes_[static_cast<std::size_t>(rank)].sampled;
}
std::uint64_t MsgTrace::dropped(int rank) const {
  return lanes_[static_cast<std::size_t>(rank)].dropped;
}
std::uint64_t MsgTrace::total_hops() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane.ring.size();
  return n;
}

std::vector<HopRecord> MsgTrace::lane_records(const Lane& lane) const {
  std::vector<HopRecord> out;
  out.reserve(lane.ring.size());
  if (lane.ring.size() < lane.capacity) {
    out = lane.ring;  // never wrapped: already oldest-first
  } else {
    out.insert(out.end(), lane.ring.begin() + static_cast<std::ptrdiff_t>(lane.head),
               lane.ring.end());
    out.insert(out.end(), lane.ring.begin(),
               lane.ring.begin() + static_cast<std::ptrdiff_t>(lane.head));
  }
  return out;
}

std::vector<MsgTrace::MsgSummary> MsgTrace::summarize() const {
  std::unordered_map<MsgId, std::vector<HopRecord>> by_msg;
  for (const auto& lane : lanes_) {
    for (const HopRecord& rec : lane_records(lane)) {
      by_msg[rec.id].push_back(rec);
    }
  }

  std::vector<MsgSummary> out;
  out.reserve(by_msg.size());
  for (auto& [id, hops] : by_msg) {
    // Virtual times are causally non-decreasing along a message's life, so a
    // time sort recovers hop order; record order breaks zero-length ties
    // (a rendezvous CTS's chan_start follows the match_hit that sent it).
    std::sort(hops.begin(), hops.end(),
              [](const HopRecord& a, const HopRecord& b) {
                if (a.t != b.t) return a.t < b.t;
                return a.seq < b.seq;
              });
    MsgSummary s;
    s.id = id;
    s.t_begin = hops.front().t;
    s.t_end = hops.back().t;
    s.complete = hops.front().kind == HopKind::kInject;
    if (s.complete) {
      s.op = hops.front().op;
      s.src = hops.front().rank;
      s.dst = static_cast<int>(hops.front().dst);
      s.bytes = hops.front().bytes;
    } else {
      s.src = hops.front().rank;
      s.dst = s.src;
    }
    for (std::size_t i = 1; i < hops.size(); ++i) {
      s.cat[static_cast<std::size_t>(cat_of(hops[i - 1].kind, hops[i].kind))] +=
          hops[i].t - hops[i - 1].t;
    }
    s.hops = std::move(hops);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const MsgSummary& a, const MsgSummary& b) {
    if (a.t_begin != b.t_begin) return a.t_begin < b.t_begin;
    return a.id < b.id;
  });
  return out;
}

MsgTrace::CritPath MsgTrace::critical_path(
    const std::vector<MsgSummary>& msgs) const {
  CritPath cp;
  cp.per_rank.assign(lanes_.size(), 0);
  if (msgs.empty()) return cp;
  std::unordered_map<MsgId, std::size_t> index;
  for (std::size_t i = 0; i < msgs.size(); ++i) index.emplace(msgs[i].id, i);

  // Per-rank time-sorted CPU-side hops: the anchors for cross-message edges.
  struct Anchor {
    Time t;
    std::size_t msg;
    std::size_t hop;
  };
  std::vector<std::vector<Anchor>> anchors(lanes_.size());
  for (std::size_t mi = 0; mi < msgs.size(); ++mi) {
    const auto& hops = msgs[mi].hops;
    for (std::size_t hi = 0; hi < hops.size(); ++hi) {
      if (is_cpu_hop(hops[hi].kind)) {
        anchors[hops[hi].rank].push_back({hops[hi].t, mi, hi});
      }
    }
  }
  for (auto& v : anchors) {
    std::sort(v.begin(), v.end(), [&](const Anchor& a, const Anchor& b) {
      if (a.t != b.t) return a.t < b.t;
      if (a.msg != b.msg) return a.msg < b.msg;
      return a.hop < b.hop;
    });
  }

  // Start at the globally latest CPU-side hop: the last program activity any
  // message trace observed.
  bool found = false;
  Anchor cur{0, 0, 0};
  for (const auto& v : anchors) {
    if (!v.empty() && (!found || v.back().t >= cur.t)) {
      cur = v.back();
      found = true;
    }
  }
  if (!found) return cp;
  cp.t_end = cur.t;

  std::unordered_set<MsgId> visited;
  std::vector<MsgId> path;  // latest-first; reversed at the end
  for (;;) {
    const MsgSummary& m = msgs[cur.msg];
    visited.insert(m.id);
    path.push_back(m.id);
    std::size_t hi = cur.hop;
    while (hi > 0) {
      const HopRecord& later = m.hops[hi];
      const HopRecord& earlier = m.hops[hi - 1];
      const Time dt = later.t - earlier.t;
      cp.cat[static_cast<std::size_t>(cat_of(earlier.kind, later.kind))] += dt;
      cp.per_rank[later.rank] += dt;
      --hi;
    }
    const Time t0 = m.hops.front().t;
    const std::uint16_t r = m.hops.front().rank;

    // Latest unvisited CPU hop on the injector's rank at or before t0: the
    // program activity this injection causally follows.
    const auto& lane = anchors[r];
    const Anchor* pred = nullptr;
    auto it = std::upper_bound(
        lane.begin(), lane.end(), t0,
        [](Time t, const Anchor& a) { return t < a.t; });
    while (it != lane.begin()) {
      --it;
      if (!visited.count(msgs[it->msg].id)) {
        pred = &*it;
        break;
      }
    }
    if (!pred) {
      cp.t_begin = t0;
      break;
    }
    const Time dt = t0 - pred->t;
    cp.cat[static_cast<std::size_t>(LatCat::kLocal)] += dt;
    cp.per_rank[r] += dt;
    cur = *pred;
  }
  std::reverse(path.begin(), path.end());
  cp.messages = std::move(path);
  return cp;
}

namespace {

void emit_cats(std::ostringstream& os, const std::array<Time, kNumCats>& cat) {
  os << '{';
  for (std::size_t i = 0; i < kNumCats; ++i) {
    if (i) os << ',';
    os << '"' << to_string(static_cast<LatCat>(i)) << "\":" << cat[i];
  }
  os << '}';
}

}  // namespace

std::string MsgTrace::to_json(const FabricLanes& lanes) const {
  const std::vector<MsgSummary> msgs = summarize();
  const CritPath cp = critical_path(msgs);

  std::uint64_t inj = 0, smp = 0, drp = 0;
  for (const auto& lane : lanes_) {
    inj += lane.injections;
    smp += lane.sampled;
    drp += lane.dropped;
  }

  std::ostringstream os;
  os << "{\"schema\":\"narma.msgtrace.v1\",\"nranks\":" << lanes_.size()
     << ",\"sample_every\":" << sample_every_ << ",\"injections\":" << inj
     << ",\"sampled\":" << smp << ",\"dropped\":" << drp
     << ",\"lanes\":[";
  for (std::size_t i = 0; i < lanes.rows.size(); ++i) {
    const FabricLanes::Row& row = lanes.rows[i];
    char G[32];  // %.17g: the reader computes with this exact double
    std::snprintf(G, sizeof G, "%.17g", row.G_ps_per_byte);
    os << (i ? "," : "") << "{\"name\":\"" << row.name
       << "\",\"L_ps\":" << row.L << ",\"g_ps\":" << row.g
       << ",\"G_ps_per_byte\":" << G << '}';
  }
  os << "],\"per_rank\":[";
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    if (r) os << ',';
    os << "{\"rank\":" << r << ",\"injections\":" << lanes_[r].injections
       << ",\"sampled\":" << lanes_[r].sampled
       << ",\"dropped\":" << lanes_[r].dropped << '}';
  }
  os << "],\"messages\":[";
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const MsgSummary& m = msgs[i];
    if (i) os << ',';
    os << "{\"id\":" << m.id << ",\"flow_id\":" << flow_id(m.id)
       << ",\"op\":\"" << to_string(m.op) << "\",\"src\":" << m.src
       << ",\"dst\":" << m.dst << ",\"bytes\":" << m.bytes;
    if (m.complete)
      os << ",\"lane\":\"" << lanes.rows[lanes.of(m.src, m.dst, m.bytes)].name
         << '"';
    os << ",\"t_begin_ps\":" << m.t_begin << ",\"t_end_ps\":" << m.t_end
       << ",\"latency_ps\":" << m.latency()
       << ",\"complete\":" << (m.complete ? "true" : "false")
       << ",\"decomp_ps\":";
    emit_cats(os, m.cat);
    os << ",\"hops\":[";
    for (std::size_t h = 0; h < m.hops.size(); ++h) {
      if (h) os << ',';
      os << "{\"kind\":\"" << to_string(m.hops[h].kind)
         << "\",\"rank\":" << m.hops[h].rank << ",\"t_ps\":" << m.hops[h].t
         << '}';
    }
    os << "]}";
  }
  os << "],\"critical_path\":{\"t_begin_ps\":" << cp.t_begin
     << ",\"t_end_ps\":" << cp.t_end << ",\"span_ps\":" << cp.span()
     << ",\"decomp_ps\":";
  emit_cats(os, cp.cat);
  os << ",\"messages\":[";
  for (std::size_t i = 0; i < cp.messages.size(); ++i) {
    if (i) os << ',';
    os << cp.messages[i];
  }
  os << "],\"per_rank_ps\":[";
  for (std::size_t r = 0; r < cp.per_rank.size(); ++r) {
    if (r) os << ',';
    os << cp.per_rank[r];
  }
  os << "]}}";
  return os.str();
}

}  // namespace narma::obs
