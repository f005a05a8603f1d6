#include "obs/journal.hpp"

#include <cstdio>
#include <sstream>

namespace narma::obs {

const char* to_string(JournalKind k) {
  switch (k) {
    case JournalKind::kFaultDrop:
      return "fault_drop";
    case JournalKind::kFaultStall:
      return "fault_stall";
    case JournalKind::kFaultJitter:
      return "fault_jitter";
    case JournalKind::kPressure:
      return "pressure";
    case JournalKind::kCreditStall:
      return "credit_stall";
    case JournalKind::kOverflowSpill:
      return "overflow_spill";
    case JournalKind::kRankFail:
      return "rank_fail";
    case JournalKind::kRankRejoin:
      return "rank_rejoin";
    case JournalKind::kCkptEpoch:
      return "ckpt_epoch";
    case JournalKind::kReplay:
      return "replay";
  }
  return "?";
}

Journal::Journal(std::size_t capacity) : cap_(capacity) {
  ring_.reserve(cap_);
}

void Journal::append(JournalKind kind, Time t, std::int32_t rank,
                     std::int32_t peer, std::uint64_t a, std::uint64_t b,
                     std::int32_t aux) {
  ++appended_;
  if (cap_ == 0) {
    ++dropped_;
    return;
  }
  const Record rec{t, kind, rank, peer, a, b, aux};
  if (ring_.size() < cap_) {
    ring_.push_back(rec);
    return;
  }
  ring_[head_] = rec;
  head_ = (head_ + 1) % cap_;
  ++dropped_;
}

std::vector<Journal::Record> Journal::records() const {
  std::vector<Record> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

std::string Journal::detail(const Record& r) {
  char buf[160];
  switch (r.kind) {
    case JournalKind::kFaultDrop:
      std::snprintf(buf, sizeof buf, "dropped %llu B transfer (attempt %llu)",
                    static_cast<unsigned long long>(r.a),
                    static_cast<unsigned long long>(r.b));
      break;
    case JournalKind::kFaultStall:
      std::snprintf(buf, sizeof buf, "NIC stalled %llu ps",
                    static_cast<unsigned long long>(r.a));
      break;
    case JournalKind::kFaultJitter:
      std::snprintf(buf, sizeof buf, "delivery jitter +%llu ps",
                    static_cast<unsigned long long>(r.a));
      break;
    case JournalKind::kPressure:
      std::snprintf(buf, sizeof buf, "forced backpressure on queue %llu",
                    static_cast<unsigned long long>(r.a));
      break;
    case JournalKind::kCreditStall:
      std::snprintf(buf, sizeof buf,
                    "credit stall toward rank %d on queue %llu (%llu waits)",
                    r.peer, static_cast<unsigned long long>(r.a),
                    static_cast<unsigned long long>(r.b));
      break;
    case JournalKind::kOverflowSpill:
      std::snprintf(buf, sizeof buf,
                    "overflow spill (queue depth %llu, spill depth %llu)",
                    static_cast<unsigned long long>(r.a),
                    static_cast<unsigned long long>(r.b));
      break;
    case JournalKind::kRankFail:
      std::snprintf(buf, sizeof buf, "rank failed at end of epoch %llu",
                    static_cast<unsigned long long>(r.a));
      break;
    case JournalKind::kRankRejoin:
      std::snprintf(buf, sizeof buf,
                    "rank rejoined from partner %d at epoch %llu "
                    "(outage %llu ps)",
                    r.peer, static_cast<unsigned long long>(r.a),
                    static_cast<unsigned long long>(r.b));
      break;
    case JournalKind::kCkptEpoch:
      std::snprintf(buf, sizeof buf,
                    "checkpointed epoch %llu to partner %d (%llu B)",
                    static_cast<unsigned long long>(r.a), r.peer,
                    static_cast<unsigned long long>(r.b));
      break;
    case JournalKind::kReplay:
      std::snprintf(buf, sizeof buf,
                    "replayed %llu logged notifications from rank %d "
                    "(%llu deduped)",
                    static_cast<unsigned long long>(r.a), r.peer,
                    static_cast<unsigned long long>(r.b));
      break;
    default:
      buf[0] = '\0';
      break;
  }
  return buf;
}

std::string Journal::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"narma.journal.v1\",\"capacity\":" << cap_
     << ",\"appended\":" << appended_ << ",\"dropped\":" << dropped_
     << ",\"records\":[";
  bool first = true;
  for (const Record& r : records()) {
    if (!first) os << ',';
    first = false;
    os << "{\"t_ps\":" << r.t << ",\"kind\":\"" << to_string(r.kind)
       << "\",\"rank\":" << r.rank << ",\"peer\":" << r.peer
       << ",\"a\":" << r.a << ",\"b\":" << r.b << ",\"aux\":" << r.aux
       << ",\"detail\":\"" << detail(r) << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace narma::obs
