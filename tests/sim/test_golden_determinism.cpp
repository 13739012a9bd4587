// Fixed-seed golden fingerprints (ISSUE 3 satellite).
//
// The zero-copy message plane (TagTable interning + SharedBytes payloads
// + flat-hash containers) must be *bit-for-bit* behaviour-preserving:
// same decisions, same word counts, same per-tag word split, same event
// trace. These tests pin two workloads — a standalone whp_coin flip and
// a ba_whp agreement over duplicating/replaying links — to fingerprint
// strings captured on the pre-refactor tree. Any scheduling, accounting,
// or payload drift changes the string.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "ba/ba_whp.h"
#include "coin/coin_protocol.h"
#include "coin/whp_coin.h"
#include "core/env.h"
#include "core/runner.h"
#include "sim/simulation.h"
#include "sim/trace.h"

namespace coincidence {
namespace {

using sim::Counter;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over the trace's JSONL dump — one number pinning the exact
/// record sequence (ids, endpoints, tags, word counts, causal depths,
/// provenance, decisions and rounds).
std::uint64_t trace_hash(const sim::TraceRecorder& trace) {
  std::ostringstream os;
  trace.dump_jsonl(os);
  return fnv1a(os.str());
}

/// Canonical one-line-per-field fingerprint of a finished run.
std::string fingerprint(const sim::Simulation& sim,
                        const sim::TraceRecorder& trace,
                        const std::string& decisions) {
  std::ostringstream os;
  os << "decisions=" << decisions << "\n";
  os << "correct_words=" << sim.metrics().correct_words() << "\n";
  os << "total_words=" << sim.metrics().total_words() << "\n";
  os << "messages_sent=" << sim.metrics().messages_sent() << "\n";
  os << "deliveries=" << sim.metrics().deliveries() << "\n";
  const sim::Counters& counters = sim.metrics().counters();
  os << "link_duplicates=" << counters[Counter::kLinkDuplicates] << "\n";
  os << "link_replays=" << counters[Counter::kLinkReplays] << "\n";
  os << "words_by_tag=";
  for (const auto& [tag, words] : sim.metrics().words_by_tag())
    os << tag << ":" << words << ";";
  os << "\n";
  os << "trace_events=" << trace.records().size() << "\n";
  os << "trace_hash=" << trace_hash(trace) << "\n";
  return os.str();
}

TEST(GoldenDeterminism, WhpCoinReliableSeed11) {
  const std::size_t n = 40;
  core::Env env = core::Env::make_relaxed(n, /*seed=*/101);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = 11;
  sim::Simulation sim(cfg);
  auto trace = std::make_shared<sim::TraceRecorder>();
  sim.add_observer(trace);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    coin::WhpCoin::Config ccfg{env};
    ccfg.tag = "coin";
    ccfg.round = 1;
    sim.add_process(std::make_unique<coin::CoinHost>(
        std::make_unique<coin::WhpCoin>(std::move(ccfg))));
  }
  sim.start();
  sim.run();

  std::string decisions;
  for (crypto::ProcessId i = 0; i < n; ++i) {
    const auto& coin = dynamic_cast<coin::CoinHost&>(sim.process(i)).coin();
    decisions += coin.done() ? ('0' + coin.output()) : '-';
  }

  // Captured on the pre-refactor tree (PR 2 tip, commit cfe282f).
  // The trace lines count and hash the JSONL records (pinned at 8c61617;
  // the hash re-pinned at 338a487 to that trace without its vector clocks).
  const std::string expected =
      "decisions=0000000000000000000000000000000000000000\n"
      "correct_words=6600\n"
      "total_words=6600\n"
      "messages_sent=2200\n"
      "deliveries=2145\n"
      "link_duplicates=0\n"
      "link_replays=0\n"
      "words_by_tag=first:3240;second:3360;\n"
      "trace_events=4385\n"
      "trace_hash=16276406070215789052\n";
  EXPECT_EQ(fingerprint(sim, *trace, decisions), expected);
}

TEST(GoldenDeterminism, BaWhpDupReplaySeed9) {
  const std::size_t n = 24;
  core::Env env = core::Env::make_relaxed(n, /*seed=*/202);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = 2;
  cfg.seed = 9;
  // Duplicating + replaying (never dropping) links: exercises the
  // replay-history and duplicate paths while preserving liveness.
  cfg.network.default_link.dup_p = 0.25;
  cfg.network.default_link.max_duplicates = 2;
  cfg.network.default_link.replay_p = 0.15;
  cfg.network.default_link.replay_window = 8;
  sim::Simulation sim(cfg);
  auto trace = std::make_shared<sim::TraceRecorder>();
  sim.add_observer(trace);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    ba::BaWhp::Config bcfg{env};
    bcfg.tag = "ba";
    bcfg.max_rounds = 32;
    sim.add_process(std::make_unique<ba::BaWhp>(
        std::move(bcfg), static_cast<ba::Value>(i % 2)));
  }
  sim.corrupt(n - 1, sim::FaultPlan::silent());
  sim.corrupt(n - 2, sim::FaultPlan::silent());
  sim.start();
  sim.run_until([&] {
    for (sim::ProcessId i = 0; i + 2 < n; ++i)
      if (!dynamic_cast<ba::BaWhp&>(sim.process(i)).decided()) return false;
    return true;
  });

  std::string decisions;
  for (crypto::ProcessId i = 0; i + 2 < n; ++i) {
    const auto& p = dynamic_cast<ba::BaWhp&>(sim.process(i));
    decisions += p.decided() ? ('0' + p.decision()) : '-';
  }

  // Captured on the pre-refactor tree (PR 2 tip, commit cfe282f).
  // The trace lines count and hash the JSONL records (pinned at 8c61617;
  // the hash re-pinned at 338a487 to that trace without its vector clocks).
  const std::string expected =
      "decisions=1111111111111111111111\n"
      "correct_words=53328\n"
      "total_words=53328\n"
      "messages_sent=5280\n"
      "deliveries=6798\n"
      "link_duplicates=1928\n"
      "link_replays=626\n"
      "words_by_tag=echo:4752;first:1584;init:3168;ok:42240;second:1584;\n"
      "trace_events=14754\n"
      "trace_hash=15218691758298894350\n";
  EXPECT_EQ(fingerprint(sim, *trace, decisions), expected);
}

/// Tallies the fault-plane callbacks a faulted golden run must exercise.
struct FaultTally final : sim::Observer {
  std::size_t junk = 0;
  std::size_t crash_recover = 0;
  std::size_t recovers = 0;
  void on_corrupt(sim::ProcessId, const sim::FaultPlan& plan) override {
    if (plan.mode == sim::FaultPlan::Mode::kJunk) ++junk;
    if (plan.mode == sim::FaultPlan::Mode::kCrashRecover) ++crash_recover;
  }
  void on_recover(sim::ProcessId) override { ++recovers; }
};

/// Bracha BA over reliable broadcast at n=7 with every handler side
/// effect the simulator knows: a junk sender, a crash-recover restart,
/// lossy links repaired by the reliable channel (timers and
/// retransmissions), a retransmit budget low enough to dead-letter
/// frames, and, on the erasure-coded backend, coding counters. Pins the
/// JSONL trace plus the metrics JSON, so any reordering of sends,
/// wakeups, notes or counts shows — on the legacy loop and, absolutely,
/// on the sharded engine.
std::string faulted_bracha_fingerprint(
    std::size_t shards, ba::RbcBackend rbc = ba::RbcBackend::kEc) {
  core::RunOptions o;
  o.protocol = core::Protocol::kBracha;
  o.n = 7;
  o.seed = 3;
  o.inputs.assign(o.n, ba::kZero);
  for (std::size_t i = 0; i < o.n / 2; ++i) o.inputs[i] = ba::kOne;
  o.rbc = rbc;
  o.junk = 1;
  o.crash_recover = 1;
  o.network.default_link.drop_p = 0.02;
  o.reliable_channel = true;
  o.transport_retransmits = 4;
  o.shards = shards;

  auto trace = std::make_shared<sim::TraceRecorder>();
  auto tally = std::make_shared<FaultTally>();
  core::RunInstruments instruments;
  instruments.observers = {trace, tally};
  instruments.detailed_metrics = true;
  std::string metrics_json;
  instruments.metrics_out = [&](const sim::Metrics& m) {
    std::ostringstream os;
    m.to_json(os);
    metrics_json = os.str();
  };
  const core::RunReport r = core::run_agreement(o, instruments);

  EXPECT_EQ(tally->junk, 1u);
  EXPECT_EQ(tally->crash_recover, 1u);
  EXPECT_EQ(tally->recovers, 1u);
  EXPECT_GT(r.counters[Counter::kRetransmits], 0u);
  EXPECT_GT(r.counters[Counter::kDeadLetters], 0u);
  if (rbc == ba::RbcBackend::kEc)
    EXPECT_GT(r.counters[Counter::kRbcEncodes], 0u);

  std::ostringstream jsonl;
  trace->dump_jsonl(jsonl);
  std::ostringstream os;
  os << "decided=" << r.all_correct_decided << "\n";
  os << "correct_words=" << r.correct_words << "\n";
  os << "retransmits=" << r.counters[Counter::kRetransmits] << "\n";
  os << "dead_letters=" << r.counters[Counter::kDeadLetters] << "\n";
  os << "rbc_encodes=" << r.counters[Counter::kRbcEncodes] << "\n";
  os << "trace_hash=" << fnv1a(jsonl.str()) << "\n";
  os << "metrics_hash=" << fnv1a(metrics_json) << "\n";
  return os.str();
}

TEST(GoldenDeterminism, FaultedBrachaEcLegacyLoop) {
  // Captured at the parent of the one-effect-path refactor; trace_hash
  // re-pinned to that trace without its vector clocks and with dropped
  // retransmissions traced as such.
  const std::string expected =
      "decided=1\n"
      "correct_words=18705\n"
      "retransmits=3787\n"
      "dead_letters=776\n"
      "rbc_encodes=119\n"
      "trace_hash=862013167751607484\n"
      "metrics_hash=12709266375542951223\n";
  EXPECT_EQ(faulted_bracha_fingerprint(/*shards=*/0), expected);
}

TEST(GoldenDeterminism, FaultedBrachaPayloadRbcLegacyLoop) {
  // The same faulted run over Bracha's payload-echo RBC: pins the order
  // of that backend's echoes, readies and deliveries.
  const std::string expected =
      "decided=1\n"
      "correct_words=8641\n"
      "retransmits=3792\n"
      "dead_letters=760\n"
      "rbc_encodes=0\n"
      "trace_hash=13065612457721133980\n"
      "metrics_hash=6029467805626657188\n";
  EXPECT_EQ(faulted_bracha_fingerprint(/*shards=*/0, ba::RbcBackend::kBracha),
            expected);
}

TEST(GoldenDeterminism, FaultedBrachaEcSharded) {
  // Captured at the parent of the one-effect-path refactor; trace_hash
  // re-pinned to that trace without its vector clocks and with dropped
  // retransmissions traced as such.
  const std::string expected =
      "decided=1\n"
      "correct_words=19500\n"
      "retransmits=3305\n"
      "dead_letters=410\n"
      "rbc_encodes=119\n"
      "trace_hash=1780041879474248005\n"
      "metrics_hash=332929561535842401\n";
  EXPECT_EQ(faulted_bracha_fingerprint(/*shards=*/4), expected);
}

}  // namespace
}  // namespace coincidence
