// run_report: replay any (config, seed) and explain where the run's
// words and time went.
//
//   ./run_report --protocol ba-whp --n 64 --seed 7
//                [--ones k] [--crash c --silent s --junk j
//                 --crash-recover r --recover-after 5000]
//                [--adversary random|fifo|delay-senders|split|heavy-tail|
//                             adaptive-corruption]
//                [--rbc bracha|ec]
//                [--drop p --dup p --replay p] [--reliable-channel
//                 --retransmits 24]
//                [--epsilon 0.25 --d 0.02] [--max-rounds 64]
//                [--adaptive-victims k]
//                [--preset NAME | --schedule SPEC]
//                [--shards 0 --sim-threads 0]
//                [--top 10] [--samples 1] [--threads 0] [--tag-filter P]
//                [--trace PATH] [--json PATH] [--prom PATH]   ("-" = stdout)
//
// The run flags are core::parse_run_options's, shared with chaos_run, so
// a CHAOS-VIOLATION repro line replays here too; only the defaults
// --n 64 and --ones n/2 are this tool's own.
//
// Every run is a pure function of (config, seed), so this tool replays
// the exact run an experiment saw, with telemetry attached:
//   * per-phase word breakdown — partitions the paper's word-complexity
//     measure exactly (the totals line cross-checks the sum);
//   * top-k hot tags by correct-sender words;
//   * the critical path back-chained by causal depth through the
//     JSONL trace — the longest causal message chain, i.e. the
//     paper's duration metric made concrete;
//   * rounds-to-decide, against the paper's per-round success-rate
//     lower bound when the protocol has one (Lemma 4.8 / B.7);
//   * optional exports: JSONL trace, metrics JSON,
//     Prometheus text.
//
// With --samples S > 1, seeds seed..seed+S-1 run on a thread pool
// (order-preserving, bit-identical to serial — --threads changes
// nothing but wall-clock) and the round distribution is estimated
// across samples.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "committee/params.h"
#include "common/args.h"
#include "common/errors.h"
#include "common/parallel.h"
#include "core/runner.h"
#include "sim/trace.h"

using namespace coincidence;

namespace {

int fail(const std::string& message) {
  std::cerr << "run_report: " << message << '\n';
  return 2;
}

/// Writes `body(os)` to `path`; "-" selects stdout.
template <typename Body>
bool write_out(const std::string& path, Body&& body) {
  if (path == "-") {
    body(std::cout);
    return true;
  }
  std::ofstream out(path);
  if (!out) return false;
  body(out);
  return true;
}

void print_critical_path(std::ostream& os,
                         const std::vector<sim::Hop>& chain) {
  os << "critical path (" << chain.size() << " hops";
  if (!chain.empty() && chain.front().depth > 1)
    os << ", suffix — earlier hops are not in the trace";
  os << "):\n";
  const std::size_t kHead = 8, kTail = 8;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (chain.size() > kHead + kTail && i == kHead) {
      os << "  ... " << (chain.size() - kHead - kTail) << " hops ...\n";
      i = chain.size() - kTail;
    }
    const sim::Hop& h = chain[i];
    os << "  depth " << h.depth << ": " << h.from << " -> " << h.to << "  "
       << h.tag << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);

  // This tool's own defaults: n = 64, the first n/2 processes propose 1.
  core::RunOptions o;
  o.n = static_cast<std::size_t>(args.get_int("n", 64));
  o.inputs.assign(o.n / 2, ba::kOne);
  try {
    o = core::parse_run_options(args, std::move(o));
  } catch (const ConfigError& e) {
    return fail(e.what());
  }

  const auto top_k = static_cast<std::size_t>(args.get_int("top", 10));
  const auto samples = static_cast<std::size_t>(args.get_int("samples", 1));
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 0));

  // --- The instrumented replay of (config, seed). ---------------------
  auto trace = std::make_shared<sim::TraceRecorder>(
      sim::TraceOptions{.tag_filter = args.get("tag-filter", "")});

  std::map<std::string, sim::Metrics::PhaseDetail> phases;
  std::map<std::string, sim::Metrics::TagDetail> tags;
  std::map<std::string, std::uint64_t> phase_words;
  std::string metrics_json;
  std::string metrics_prom;
  std::string decide_rounds_brief;

  core::RunInstruments instruments;
  instruments.observers.push_back(trace);
  instruments.detailed_metrics = true;
  instruments.metrics_out = [&](const sim::Metrics& m) {
    phases = m.by_phase();
    tags = m.by_tag();
    phase_words = m.words_by_phase();
    decide_rounds_brief = m.decide_rounds().summary();
    std::ostringstream js, pm;
    m.to_json(js);
    m.to_prometheus(pm);
    metrics_json = js.str();
    metrics_prom = pm.str();
  };

  const core::RunReport r = core::run_agreement(o, instruments);

  std::cout << "run_report — " << core::protocol_name(o.protocol)
            << "  n=" << o.n << "  seed=" << o.seed
            << "  adversary=" << core::adversary_name(o.adversary)
            << "  rbc=" << ba::to_string(o.rbc)
            << "\n  faults: crash=" << o.crash << " silent=" << o.silent
            << " junk=" << o.junk << " crash-recover=" << o.crash_recover
            << "  (f=" << r.protocol_f << ")\n\n";

  std::cout << "decided           : "
            << (r.all_correct_decided ? "all correct" : "NOT ALL") << '\n';
  if (r.decision)
    std::cout << "decision          : " << *r.decision << " (agreement "
              << (r.agreement ? "holds" : "VIOLATED") << ")\n";
  std::cout << "last decided round: " << r.max_decided_round << '\n'
            << "words (correct)   : " << r.correct_words << '\n'
            << "messages          : " << r.messages << '\n'
            << "causal duration   : " << r.duration << '\n';
  using C = sim::Counter;
  const sim::Counters& c = r.counters;
  if (c[C::kLinkDrops] + c[C::kLinkDuplicates] + c[C::kLinkReplays] +
          c[C::kRetransmits] + c[C::kDeadLetters] >
      0)
    std::cout << "link faults       : drops=" << c[C::kLinkDrops]
              << " dups=" << c[C::kLinkDuplicates]
              << " replays=" << c[C::kLinkReplays]
              << " retransmits=" << c[C::kRetransmits]
              << " dead-letters=" << c[C::kDeadLetters] << " ("
              << c[C::kDeadLetterWords] << " words)\n";
  // Engine telemetry lives in the human report ONLY: the --json export
  // is the cross-shard byte-compare surface (CI diffs it across --shards
  // 1/2/4/8), so per-shard counters must never leak into Metrics.
  if (r.shards > 0) {
    std::cout << "sharded engine    : shards=" << r.shards << "  supersteps="
              << r.supersteps << "  merge stalls=" << r.merge_stalls << '\n';
    std::cout << "  deliveries/shard:";
    for (std::size_t s = 0; s < r.shard_deliveries.size(); ++s)
      std::cout << (s == 0 ? " " : " | ") << s << ':'
                << r.shard_deliveries[s];
    std::cout << '\n';
  }
  std::cout << '\n';

  // --- Per-phase word breakdown (partitions correct_words exactly). ---
  std::uint64_t phase_total = 0;
  std::size_t widest = 6;  // at least "verify"
  for (const auto& [phase, words] : phase_words) {
    phase_total += words;
    widest = std::max(widest, phase.size());
  }
  std::cout << "words by phase:\n";
  for (const auto& [phase, words] : phase_words) {
    std::cout << "  " << phase << std::string(widest - phase.size() + 2, ' ')
              << words;
    auto detail = phases.find(phase);
    if (detail != phases.end() && detail->second.messages > 0)
      std::cout << "   (" << detail->second.messages << " msgs, depth "
                << detail->second.depth.brief() << ", latency "
                << detail->second.latency.brief() << ")";
    std::cout << '\n';
  }
  // Deferred coin-share verification is compute, not communication: the
  // row carries zero words, so the partition of correct_words above
  // stays exact while the verification pipeline is still accounted.
  std::cout << "  verify" << std::string(widest - 6 + 2, ' ') << 0 << "   ("
            << c[C::kVerifyFlushes] << " flushes, " << c[C::kVerifyShares]
            << " shares, " << c[C::kVerifyRejects] << " rejects, "
            << c[C::kVerifyMemoHits] << " memo hits)\n";
  // Same deal for the approver's deferred W-signature sweeps: zero words
  // (the ok messages were already charged), pure verification compute.
  // memo hit-rate is the run-wide dedup factor — every ok embeds the
  // SAME W signed echoes, so hits/checks ≈ 1 - 1/n in a clean run.
  if (c[C::kSigVerifyFlushes] + r.sig_checks > 0) {
    std::cout << "  sig-verify" << std::string(widest > 10 ? widest - 10 + 2 : 2, ' ')
              << 0 << "   (" << c[C::kSigVerifyFlushes] << " batches, "
              << c[C::kSigVerifySigs] << " sigs, " << c[C::kSigVerifyRejects]
              << " rejects";
    if (r.sig_checks > 0)
      std::cout << ", memo hit-rate "
                << (100.0 * static_cast<double>(r.sig_memo_hits) /
                    static_cast<double>(r.sig_checks))
                << "%";
    std::cout << ")\n";
  }
  // Erasure-coding work is compute too: fragments already paid their
  // wire words in the initial/echo rows, so the dissemination row stays
  // at zero words and only surfaces the codec pipeline.
  if (c[C::kRbcEncodes] + c[C::kRbcDecodes] > 0) {
    std::cout << "  rbc-code" << std::string(widest > 8 ? widest - 8 + 2 : 2, ' ')
              << 0 << "   (" << c[C::kRbcEncodes] << " encodes / "
              << c[C::kRbcFragmentsEncoded] << " fragments, "
              << c[C::kRbcDecodes] << " decodes / "
              << c[C::kRbcFragmentsDecoded] << " fragments, "
              << c[C::kRbcDecodeFailures] << " poisoned)\n";
  }
  std::cout << "  total " << phase_total
            << (phase_total == r.correct_words
                    ? " == correct words (exact)"
                    : " != correct words — ACCOUNTING BUG")
            << "\n\n";

  // --- Top-k hot tags by correct-sender words. ------------------------
  std::vector<std::pair<std::string, std::uint64_t>> hot;
  for (const auto& [tag, row] : tags)
    if (row.correct_words > 0) hot.emplace_back(tag, row.correct_words);
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (hot.size() > top_k) hot.resize(top_k);
  std::cout << "top " << hot.size() << " tags by correct words:\n";
  for (const auto& [tag, words] : hot)
    std::cout << "  " << words << "\t" << tag << '\n';
  std::cout << '\n';

  // --- Critical path from the JSONL trace. ----------------------------
  print_critical_path(std::cout, critical_path(trace->records()));
  std::cout << '\n';

  // --- Rounds to decide vs the paper's success-rate bound. ------------
  double rho = 0.0;
  const char* bound_name = nullptr;
  if (o.protocol == core::Protocol::kBaWhp ||
      o.protocol == core::Protocol::kMmrWhpCoin) {
    rho = committee::whp_coin_success_lower_bound(o.d);
    bound_name = "Lemma B.7 (committee coin)";
  } else if (o.protocol == core::Protocol::kMmrSharedCoin) {
    rho = committee::coin_success_lower_bound(o.epsilon);
    bound_name = "Lemma 4.8 (full coin)";
  }
  if (bound_name != nullptr && rho <= 0.0) {
    std::cout << bound_name << ": rho=" << rho
              << " — vacuous at these parameters (relaxed epsilon/d); "
                 "observed distribution only\n";
    bound_name = nullptr;
  }
  std::cout << "decide rounds (this run, all decision events): "
            << decide_rounds_brief << '\n';

  if (samples > 1) {
    std::vector<core::RunOptions> fan(samples, o);
    for (std::size_t i = 0; i < samples; ++i) fan[i].seed = o.seed + i;
    ThreadPool pool(threads);
    const auto reports = core::run_agreements_parallel(pool, fan);
    std::map<std::uint64_t, std::size_t> by_round;
    std::size_t undecided = 0;
    for (const auto& rep : reports) {
      if (rep.all_correct_decided) ++by_round[rep.max_decided_round];
      else ++undecided;
    }
    std::cout << "round distribution over " << samples << " seeds ["
              << o.seed << ", " << o.seed + samples - 1 << "]";
    if (bound_name != nullptr)
      std::cout << " vs " << bound_name << " rho=" << rho;
    std::cout << ":\n";
    std::size_t cumulative = 0;
    for (const auto& [round, count] : by_round) {
      cumulative += count;
      std::cout << "  decided by round " << round << ": " << cumulative
                << '/' << samples;
      if (bound_name != nullptr) {
        double bound = 1.0;
        for (std::uint64_t i = 0; i <= round; ++i) bound *= 1.0 - rho;
        std::cout << "   (P[undecided] <= " << bound << ")";
      }
      std::cout << '\n';
    }
    if (undecided > 0)
      std::cout << "  whp-failure tail: " << undecided << '/' << samples
                << " did not fully decide\n";
  } else if (bound_name != nullptr) {
    double bound = 1.0;
    for (std::uint64_t i = 0; i <= r.max_decided_round; ++i)
      bound *= 1.0 - rho;
    std::cout << bound_name << ": rho=" << rho
              << ", P[undecided after round " << r.max_decided_round
              << "] <= " << bound << '\n';
  }

  // --- Exports. -------------------------------------------------------
  if (args.has("trace")) {
    const std::string path = args.get("trace", "-");
    if (!write_out(path, [&](std::ostream& os) { trace->dump_jsonl(os); }))
      return fail("cannot write --trace " + path);
    if (path != "-")
      std::cout << "\ntrace  -> " << path << "  (" << trace->records().size()
                << " records)\n";
  }
  if (args.has("json")) {
    const std::string path = args.get("json", "-");
    if (!write_out(path, [&](std::ostream& os) { os << metrics_json << '\n'; }))
      return fail("cannot write --json " + path);
    if (path != "-") std::cout << "json   -> " << path << '\n';
  }
  if (args.has("prom")) {
    const std::string path = args.get("prom", "-");
    if (!write_out(path, [&](std::ostream& os) { os << metrics_prom; }))
      return fail("cannot write --prom " + path);
    if (path != "-") std::cout << "prom   -> " << path << '\n';
  }

  return phase_total == r.correct_words ? 0 : 1;
}
