// Word/message/time accounting, defined exactly as in §2 of the paper:
//   word complexity = total words sent by correct processes,
//   duration        = longest causally-related message chain.
//
// Telemetry plane (ISSUE 4): beside the flat run-level totals, Metrics
// can keep per-tag log-bucketed histograms of words, causal depth and
// delivery latency (in delivery-events), plus a rounds-to-decide
// histogram fed by Context::note_decide. Detail recording is off by
// default and must be switched on with enable_detail() — the hot path
// then costs three histogram adds per event; with detail off the record
// paths are byte-for-byte the pre-telemetry work, so benches that run
// without observers pay nothing.
//
// Derived views bucket the per-TagId rows by *phase* (the tag with every
// numeric component wildcarded: "ba/3/coin/first" -> "ba/*/coin/first")
// and by *round* (the first numeric component). Views resolve TagIds to
// strings and fold into string-keyed maps, so they are identical across
// runs whatever order tags were interned in.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/log_hist.h"
#include "common/stats.h"
#include "sim/counters.h"
#include "sim/message.h"

namespace coincidence::sim {

/// Derives the phase key of a tag: every '/'-separated all-numeric
/// component replaced by '*'. Exposed for tests and report tooling.
std::string phase_of_tag(const std::string& tag);

/// First all-numeric '/'-separated component of a tag, if any — the
/// round encoded by every protocol's "<prefix>/<round>/<step>" grammar.
std::optional<std::uint64_t> round_of_tag(const std::string& tag);

class Metrics {
 public:
  /// Per-tag telemetry row (detail mode only). Latency is measured in
  /// delivery-events between enqueue and delivery; depth is the
  /// delivered message's causal depth.
  struct TagDetail {
    std::uint64_t messages = 0;
    std::uint64_t correct_words = 0;
    LogHistogram words;
    LogHistogram depth;
    LogHistogram latency;
  };

  /// Phase-level rollup returned by by_phase().
  struct PhaseDetail {
    std::uint64_t messages = 0;
    std::uint64_t correct_words = 0;
    LogHistogram words;
    LogHistogram depth;
    LogHistogram latency;
  };

  /// Records a sent message. `sender_correct` selects whether it counts
  /// toward the paper's word complexity (only correct senders do).
  /// Retransmissions (msg.retransmit) are attributed to the separate
  /// retransmission-overhead bucket, never to correct_words — the §2
  /// measure assumes reliable links, so repair traffic must not skew it.
  void record_send(const Message& msg, bool sender_correct);

  void record_delivery() { ++deliveries_; }

  /// Delivery with telemetry: `latency` is delivery-events spent pending.
  /// Identical to record_delivery() when detail is off.
  void record_delivery(const Message& msg, std::uint64_t latency);

  /// Folds a decision event's causal depth into the duration metric.
  void record_decision_depth(std::uint64_t depth);

  /// A protocol decision point fired (Context::note_decide): folds the
  /// causal depth into duration and the round into the rounds-to-decide
  /// histogram. Always on — decisions are rare.
  void record_decide(std::uint64_t round, std::uint64_t depth);

  /// Adds `n` to a run counter (sim/counters.h). Always on — link
  /// faults, dead letters, verification rejects, poisoned dispersals and
  /// chaos events must be accounted, never invisible.
  void count(Counter c, std::uint64_t n) { counters_[c] += n; }

  /// Switches on per-tag histogram recording (words/depth/latency).
  void enable_detail() { detail_ = true; }
  bool detail_enabled() const { return detail_; }

  /// Words sent by correct processes (the paper's complexity measure).
  std::uint64_t correct_words() const { return correct_words_; }
  /// Words sent by everyone, Byzantine included.
  std::uint64_t total_words() const { return total_words_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t deliveries() const { return deliveries_; }
  /// Max causal depth over recorded decision events (paper "duration").
  std::uint64_t duration() const { return max_decision_depth_; }

  const Counters& counters() const { return counters_; }

  // One-line reads kept for the benchmark harness (perfbench/), which
  // builds against this header and reads them by name.
  std::uint64_t verify_shares() const {
    return counters_[Counter::kVerifyShares];
  }
  std::uint64_t verify_rejects() const {
    return counters_[Counter::kVerifyRejects];
  }
  std::uint64_t verify_memo_hits() const {
    return counters_[Counter::kVerifyMemoHits];
  }
  std::uint64_t rbc_encodes() const { return counters_[Counter::kRbcEncodes]; }
  std::uint64_t rbc_decodes() const { return counters_[Counter::kRbcDecodes]; }
  std::uint64_t rbc_decode_failures() const {
    return counters_[Counter::kRbcDecodeFailures];
  }

  /// Rounds-to-decide histogram over note_decide events from correct
  /// processes (one entry per decision point, sub-protocols included).
  const Histogram& decide_rounds() const { return decide_rounds_; }

  /// Correct-sender words bucketed by the final tag component (the
  /// message kind: init/echo/ok/first/...) — lets the benches split cost
  /// per protocol phase. The hot path accumulates into a flat vector
  /// indexed by TagId; this view resolves and buckets the strings on
  /// demand, so it is identical across runs whatever order tags were
  /// interned in.
  std::map<std::string, std::uint64_t> words_by_tag() const;

  /// Correct-sender words per phase key (numeric components wildcarded).
  /// Partitions correct_words exactly: summing the values reproduces
  /// correct_words() to the word.
  std::map<std::string, std::uint64_t> words_by_phase() const;

  /// Correct-sender words per protocol round (first numeric component);
  /// tags without a round component land under key UINT64_MAX.
  std::map<std::uint64_t, std::uint64_t> words_by_round() const;

  /// Full per-phase telemetry (detail mode): histograms merged across
  /// the tags sharing a phase key. Empty when detail is off.
  std::map<std::string, PhaseDetail> by_phase() const;

  /// Per-full-tag telemetry rows, string-keyed (detail mode).
  std::map<std::string, TagDetail> by_tag() const;

  /// Canonical JSON export of everything above. Deterministic: totals,
  /// then phases/rounds in string/numeric key order.
  void to_json(std::ostream& os) const;

  /// Prometheus text exposition (counters + histogram series), suitable
  /// for a node_exporter textfile collector. Deterministic.
  void to_prometheus(std::ostream& os) const;

  void reset();

 private:
  std::uint64_t correct_words_ = 0;
  std::uint64_t total_words_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t max_decision_depth_ = 0;
  Counters counters_;
  // Correct-sender words per full tag, indexed by TagId (grown lazily).
  std::vector<std::uint64_t> words_by_tag_id_;

  bool detail_ = false;
  // Detail rows indexed by TagId (grown lazily; detail mode only).
  std::vector<TagDetail> detail_by_tag_id_;
  Histogram decide_rounds_;

  TagDetail& detail_row(TagId id);
};

}  // namespace coincidence::sim
