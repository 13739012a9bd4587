#include "sim/metrics.h"

#include <algorithm>
#include <ostream>

namespace coincidence::sim {

namespace {

bool all_digits(const std::string& tag, std::size_t begin, std::size_t end) {
  if (begin >= end) return false;
  for (std::size_t i = begin; i < end; ++i)
    if (tag[i] < '0' || tag[i] > '9') return false;
  return true;
}

/// Minimal JSON string escaping — tags are short slash-separated tokens,
/// but a Byzantine-crafted tag must still produce valid JSON.
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

/// Prometheus label values share the JSON escaping rules for '\' , '"'
/// and '\n' — reuse the minimal escaper without the surrounding quotes.
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string phase_of_tag(const std::string& tag) {
  std::string out;
  out.reserve(tag.size());
  std::size_t begin = 0;
  for (;;) {
    std::size_t slash = tag.find('/', begin);
    std::size_t end = slash == std::string::npos ? tag.size() : slash;
    if (all_digits(tag, begin, end)) {
      out.push_back('*');
    } else {
      out.append(tag, begin, end - begin);
    }
    if (slash == std::string::npos) break;
    out.push_back('/');
    begin = slash + 1;
  }
  return out;
}

std::optional<std::uint64_t> round_of_tag(const std::string& tag) {
  std::size_t begin = 0;
  for (;;) {
    std::size_t slash = tag.find('/', begin);
    std::size_t end = slash == std::string::npos ? tag.size() : slash;
    if (all_digits(tag, begin, end)) {
      std::uint64_t r = 0;
      for (std::size_t i = begin; i < end; ++i)
        r = r * 10 + static_cast<std::uint64_t>(tag[i] - '0');
      return r;
    }
    if (slash == std::string::npos) return std::nullopt;
    begin = slash + 1;
  }
}

Metrics::TagDetail& Metrics::detail_row(TagId id) {
  if (id >= detail_by_tag_id_.size()) detail_by_tag_id_.resize(id + 1);
  return detail_by_tag_id_[id];
}

void Metrics::record_send(const Message& msg, bool sender_correct) {
  ++messages_sent_;
  total_words_ += msg.words;
  if (!sender_correct) return;
  if (msg.retransmit) {
    // Repair traffic: real wire cost, but not part of the §2 measure.
    ++counters_[Counter::kRetransmits];
    counters_[Counter::kRetransmitWords] += msg.words;
    return;
  }
  correct_words_ += msg.words;
  const TagId id = msg.tag.id();
  if (id >= words_by_tag_id_.size()) words_by_tag_id_.resize(id + 1, 0);
  words_by_tag_id_[id] += msg.words;
  if (detail_) {
    TagDetail& row = detail_row(id);
    ++row.messages;
    row.correct_words += msg.words;
    row.words.add(msg.words);
  }
}

void Metrics::record_delivery(const Message& msg, std::uint64_t latency) {
  ++deliveries_;
  if (!detail_) return;
  TagDetail& row = detail_row(msg.tag.id());
  row.depth.add(msg.causal_depth);
  row.latency.add(latency);
}

std::map<std::string, std::uint64_t> Metrics::words_by_tag() const {
  // Bucket by the final tag component — the message *kind* (init, echo,
  // ok, first, second, bval, ...) — so harnesses can split cost per
  // protocol phase regardless of instance/round prefixes. Done at view
  // time: the string-keyed map makes the result independent of TagId
  // assignment order.
  std::map<std::string, std::uint64_t> view;
  for (TagId id = 0; id < words_by_tag_id_.size(); ++id) {
    if (words_by_tag_id_[id] == 0) continue;
    const std::string& tag = TagTable::instance().str(id);
    auto slash = tag.rfind('/');
    std::string bucket =
        slash == std::string::npos ? tag : tag.substr(slash + 1);
    view[bucket] += words_by_tag_id_[id];
  }
  return view;
}

std::map<std::string, std::uint64_t> Metrics::words_by_phase() const {
  std::map<std::string, std::uint64_t> view;
  for (TagId id = 0; id < words_by_tag_id_.size(); ++id) {
    if (words_by_tag_id_[id] == 0) continue;
    view[phase_of_tag(TagTable::instance().str(id))] += words_by_tag_id_[id];
  }
  return view;
}

std::map<std::uint64_t, std::uint64_t> Metrics::words_by_round() const {
  std::map<std::uint64_t, std::uint64_t> view;
  for (TagId id = 0; id < words_by_tag_id_.size(); ++id) {
    if (words_by_tag_id_[id] == 0) continue;
    auto round = round_of_tag(TagTable::instance().str(id));
    view[round.value_or(UINT64_MAX)] += words_by_tag_id_[id];
  }
  return view;
}

std::map<std::string, Metrics::PhaseDetail> Metrics::by_phase() const {
  std::map<std::string, PhaseDetail> view;
  for (TagId id = 0; id < detail_by_tag_id_.size(); ++id) {
    const TagDetail& row = detail_by_tag_id_[id];
    if (row.messages == 0 && row.depth.empty()) continue;
    PhaseDetail& p = view[phase_of_tag(TagTable::instance().str(id))];
    p.messages += row.messages;
    p.correct_words += row.correct_words;
    p.words.merge(row.words);
    p.depth.merge(row.depth);
    p.latency.merge(row.latency);
  }
  return view;
}

std::map<std::string, Metrics::TagDetail> Metrics::by_tag() const {
  std::map<std::string, TagDetail> view;
  for (TagId id = 0; id < detail_by_tag_id_.size(); ++id) {
    const TagDetail& row = detail_by_tag_id_[id];
    if (row.messages == 0 && row.depth.empty()) continue;
    view[TagTable::instance().str(id)] = row;
  }
  return view;
}

void Metrics::record_decision_depth(std::uint64_t depth) {
  max_decision_depth_ = std::max(max_decision_depth_, depth);
}

void Metrics::record_decide(std::uint64_t round, std::uint64_t depth) {
  record_decision_depth(depth);
  decide_rounds_.add(round);
}

void Metrics::to_json(std::ostream& os) const {
  os << "{\"totals\":{"
     << "\"correct_words\":" << correct_words_
     << ",\"total_words\":" << total_words_
     << ",\"messages_sent\":" << messages_sent_
     << ",\"deliveries\":" << deliveries_
     << ",\"duration\":" << max_decision_depth_;
  for (const CounterInfo& row : kCounterTable)
    os << ",\"" << row.name << "\":" << counters_[row.id];
  os << '}';

  os << ",\"decide_rounds\":";
  json_escape(os, decide_rounds_.summary());

  os << ",\"words_by_phase\":{";
  bool first = true;
  for (const auto& [phase, words] : words_by_phase()) {
    if (!first) os << ',';
    json_escape(os, phase);
    os << ':' << words;
    first = false;
  }
  os << '}';

  os << ",\"words_by_round\":{";
  first = true;
  for (const auto& [round, words] : words_by_round()) {
    if (!first) os << ',';
    if (round == UINT64_MAX)
      os << "\"-\"";
    else
      os << '"' << round << '"';
    os << ':' << words;
    first = false;
  }
  os << '}';

  os << ",\"phases\":[";
  first = true;
  for (const auto& [phase, d] : by_phase()) {
    if (!first) os << ',';
    os << "{\"phase\":";
    json_escape(os, phase);
    os << ",\"messages\":" << d.messages
       << ",\"correct_words\":" << d.correct_words << ",\"words\":";
    d.words.to_json(os);
    os << ",\"depth\":";
    d.depth.to_json(os);
    os << ",\"latency\":";
    d.latency.to_json(os);
    os << '}';
    first = false;
  }
  os << "]}";
}

void Metrics::to_prometheus(std::ostream& os) const {
  os << "# TYPE coincidence_correct_words_total counter\n"
     << "coincidence_correct_words_total " << correct_words_ << '\n'
     << "# TYPE coincidence_total_words_total counter\n"
     << "coincidence_total_words_total " << total_words_ << '\n'
     << "# TYPE coincidence_messages_sent_total counter\n"
     << "coincidence_messages_sent_total " << messages_sent_ << '\n'
     << "# TYPE coincidence_deliveries_total counter\n"
     << "coincidence_deliveries_total " << deliveries_ << '\n'
     << "# TYPE coincidence_duration_causal_depth gauge\n"
     << "coincidence_duration_causal_depth " << max_decision_depth_ << '\n';
  for (const CounterInfo& row : kCounterTable) {
    if (!row.exported_to_prometheus) continue;
    os << "# TYPE coincidence_" << row.name << "_total counter\n"
       << "coincidence_" << row.name << "_total " << counters_[row.id] << '\n';
  }

  os << "# TYPE coincidence_phase_words_total counter\n";
  for (const auto& [phase, words] : words_by_phase())
    os << "coincidence_phase_words_total{phase=\"" << prom_escape(phase)
       << "\"} " << words << '\n';

  const auto phases = by_phase();
  if (!phases.empty()) {
    os << "# TYPE coincidence_phase_depth histogram\n";
    for (const auto& [phase, d] : phases)
      d.depth.to_prometheus(os, "coincidence_phase_depth",
                            "phase=\"" + prom_escape(phase) + "\"");
    os << "# TYPE coincidence_phase_latency_deliveries histogram\n";
    for (const auto& [phase, d] : phases)
      d.latency.to_prometheus(os, "coincidence_phase_latency_deliveries",
                              "phase=\"" + prom_escape(phase) + "\"");
  }
}

void Metrics::reset() {
  correct_words_ = 0;
  total_words_ = 0;
  messages_sent_ = 0;
  deliveries_ = 0;
  max_decision_depth_ = 0;
  counters_ = Counters{};
  words_by_tag_id_.clear();
  detail_by_tag_id_.clear();
  decide_rounds_ = Histogram{};
}

}  // namespace coincidence::sim
