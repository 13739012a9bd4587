#include "sim/trace.h"

#include <algorithm>
#include <ostream>

namespace coincidence::sim {

namespace {

const char* rec_kind_name(TraceRecorder::Rec::Kind kind) {
  using Kind = TraceRecorder::Rec::Kind;
  switch (kind) {
    case Kind::kSend: return "send";
    case Kind::kDeliver: return "deliver";
    case Kind::kDrop: return "drop";
    case Kind::kDuplicate: return "dup";
    case Kind::kReplay: return "replay";
    case Kind::kDeadLetter: return "dead_letter";
    case Kind::kCorrupt: return "corrupt";
    case Kind::kRecover: return "recover";
    case Kind::kDecide: return "decide";
    case Kind::kRound: return "round";
  }
  return "unknown";
}

const char* prov_name(TraceRecorder::Prov prov) {
  switch (prov) {
    case TraceRecorder::Prov::kFresh: return "fresh";
    case TraceRecorder::Prov::kRetransmit: return "retransmit";
    case TraceRecorder::Prov::kDuplicate: return "dup";
    case TraceRecorder::Prov::kReplay: return "replay";
  }
  return "unknown";
}

/// Minimal JSON string escaping — tags are short slash-separated tokens,
/// but a Byzantine-crafted tag must still produce valid JSONL.
void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

const char* fault_mode_name(FaultPlan::Mode mode) {
  switch (mode) {
    case FaultPlan::Mode::kCorrect: return "correct";
    case FaultPlan::Mode::kCrash: return "crash";
    case FaultPlan::Mode::kSilent: return "silent";
    case FaultPlan::Mode::kSelective: return "selective";
    case FaultPlan::Mode::kJunk: return "junk";
    case FaultPlan::Mode::kCrashRecover: return "crash-recover";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(TraceOptions opts)
    : tag_filter_(std::move(opts.tag_filter)) {}

bool TraceRecorder::passes_filter(const Message& msg) const {
  return tag_filter_.empty() ||
         msg.tag.str().find(tag_filter_) != std::string::npos;
}

std::vector<std::uint64_t>& TraceRecorder::clock_of(ProcessId id) {
  if (id >= clocks_.size()) clocks_.resize(id + 1);
  auto& clock = clocks_[id];
  if (clock.size() <= id) clock.resize(id + 1, 0);
  return clock;
}

void TraceRecorder::record_message(Rec::Kind kind, const Message& msg,
                                   bool correct, Prov prov,
                                   const std::vector<std::uint64_t>* vc) {
  Rec rec;
  rec.kind = kind;
  rec.msg_id = msg.id;
  rec.send_seq = msg.send_seq;
  rec.from = msg.from;
  rec.to = msg.to;
  rec.tag = msg.tag.str();
  rec.words = msg.words;
  rec.depth = msg.causal_depth;
  rec.correct = correct;
  rec.prov = prov;
  if (vc != nullptr) rec.vc = *vc;
  records_.push_back(std::move(rec));
}

void TraceRecorder::on_send(const Message& msg, bool sender_correct) {
  if (!passes_filter(msg)) return;
  // Lamport send: bump the sender's own component and snapshot. The
  // snapshot is keyed by send_seq so that link duplicates and replays of
  // this send (fresh msg ids, same send_seq) still resolve to it.
  auto& clock = clock_of(msg.from);
  ++clock[msg.from];
  send_clock_.insert_or_assign(msg.send_seq, clock);
  record_message(Rec::Kind::kSend, msg, sender_correct,
                 msg.retransmit ? Prov::kRetransmit : Prov::kFresh, &clock);
}

void TraceRecorder::on_deliver(const Message& msg) {
  if (!passes_filter(msg)) return;
  // Lamport receive: fold the send snapshot in, then bump the receiver.
  auto& clock = clock_of(msg.to);
  if (const auto* sent = send_clock_.find(msg.send_seq)) {
    if (clock.size() < sent->size()) clock.resize(sent->size(), 0);
    for (std::size_t i = 0; i < sent->size(); ++i)
      clock[i] = std::max(clock[i], (*sent)[i]);
  }
  ++clock[msg.to];
  Prov prov = msg.retransmit ? Prov::kRetransmit : Prov::kFresh;
  if (const auto* copy = copy_prov_.find(msg.id))
    prov = static_cast<Prov>(*copy);
  record_message(Rec::Kind::kDeliver, msg, true, prov, &clock);
}

void TraceRecorder::on_corrupt(ProcessId target, const FaultPlan& plan) {
  // Never filtered: the tag field holds a fault-mode name, not a message
  // tag, and fault accounting must survive any tag_filter.
  Rec rec;
  rec.kind = Rec::Kind::kCorrupt;
  rec.from = target;
  rec.tag = fault_mode_name(plan.mode);
  rec.correct = false;
  records_.push_back(std::move(rec));
}

void TraceRecorder::on_recover(ProcessId target) {
  Rec rec;
  rec.kind = Rec::Kind::kRecover;
  rec.from = target;
  records_.push_back(std::move(rec));
}

void TraceRecorder::on_link_drop(const Message& msg) {
  const auto* vc = send_clock_.find(msg.send_seq);
  record_message(Rec::Kind::kDrop, msg, true, Prov::kFresh, vc);
}

void TraceRecorder::on_link_duplicate(const Message& msg) {
  copy_prov_.insert_or_assign(msg.id,
                              static_cast<std::uint8_t>(Prov::kDuplicate));
  const auto* vc = send_clock_.find(msg.send_seq);
  record_message(Rec::Kind::kDuplicate, msg, true, Prov::kDuplicate, vc);
}

void TraceRecorder::on_link_replay(const Message& msg) {
  copy_prov_.insert_or_assign(msg.id,
                              static_cast<std::uint8_t>(Prov::kReplay));
  const auto* vc = send_clock_.find(msg.send_seq);
  record_message(Rec::Kind::kReplay, msg, true, Prov::kReplay, vc);
}

void TraceRecorder::on_dead_letter(ProcessId from, ProcessId to,
                                   const Tag& tag, std::size_t words) {
  Rec rec;
  rec.kind = Rec::Kind::kDeadLetter;
  rec.from = from;
  rec.to = to;
  rec.tag = tag.str();
  rec.words = words;
  records_.push_back(std::move(rec));
}

void TraceRecorder::on_decide(const DecideEvent& event) {
  Rec rec;
  rec.kind = Rec::Kind::kDecide;
  rec.from = event.who;
  rec.tag = event.scope.str();
  rec.depth = event.causal_depth;
  rec.round = event.round;
  rec.value = event.value;
  rec.correct = event.correct;
  rec.vc = clock_of(event.who);
  records_.push_back(std::move(rec));
}

void TraceRecorder::on_round(ProcessId who, std::uint64_t round) {
  Rec rec;
  rec.kind = Rec::Kind::kRound;
  rec.from = who;
  rec.round = round;
  records_.push_back(std::move(rec));
}

void TraceRecorder::dump_jsonl(std::ostream& os) const {
  std::uint64_t seq = 0;
  for (const Rec& r : records_) {
    os << "{\"seq\":" << seq++ << ",\"ev\":\"" << rec_kind_name(r.kind)
       << '"';
    switch (r.kind) {
      case Rec::Kind::kSend:
      case Rec::Kind::kDeliver:
      case Rec::Kind::kDrop:
      case Rec::Kind::kDuplicate:
      case Rec::Kind::kReplay:
        os << ",\"id\":" << r.msg_id << ",\"sseq\":" << r.send_seq
           << ",\"from\":" << r.from << ",\"to\":" << r.to << ",\"tag\":";
        json_escape(os, r.tag);
        os << ",\"words\":" << r.words << ",\"depth\":" << r.depth
           << ",\"correct\":" << (r.correct ? "true" : "false")
           << ",\"prov\":\"" << prov_name(r.prov) << '"';
        break;
      case Rec::Kind::kDeadLetter:
        os << ",\"from\":" << r.from << ",\"to\":" << r.to << ",\"tag\":";
        json_escape(os, r.tag);
        os << ",\"words\":" << r.words;
        break;
      case Rec::Kind::kCorrupt:
        os << ",\"who\":" << r.from << ",\"mode\":";
        json_escape(os, r.tag);
        break;
      case Rec::Kind::kRecover:
        os << ",\"who\":" << r.from;
        break;
      case Rec::Kind::kDecide:
        os << ",\"who\":" << r.from << ",\"scope\":";
        json_escape(os, r.tag);
        os << ",\"value\":" << r.value << ",\"round\":" << r.round
           << ",\"depth\":" << r.depth
           << ",\"correct\":" << (r.correct ? "true" : "false");
        break;
      case Rec::Kind::kRound:
        os << ",\"who\":" << r.from << ",\"round\":" << r.round;
        break;
    }
    if (!r.vc.empty()) {
      os << ",\"vc\":[";
      for (std::size_t i = 0; i < r.vc.size(); ++i) {
        if (i != 0) os << ',';
        os << r.vc[i];
      }
      os << ']';
    }
    os << "}\n";
  }
}

}  // namespace coincidence::sim
