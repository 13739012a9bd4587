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
#include "sim/simulation.h"
#include "sim/trace.h"

namespace coincidence {
namespace {

using sim::Counter;

/// FNV-1a over the trace's canonical dump — one number pinning the exact
/// event sequence (ids, endpoints, tags, word counts, sender flags).
std::uint64_t trace_hash(const sim::TraceRecorder& trace) {
  std::ostringstream os;
  trace.dump(os);
  std::uint64_t h = 14695981039346656037ull;
  for (char c : os.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
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
  os << "trace_events=" << trace.size() << "\n";
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
    coin::WhpCoin::Config ccfg;
    ccfg.tag = "coin";
    ccfg.round = 1;
    ccfg.params = env.params;
    ccfg.vrf = env.vrf;
    ccfg.registry = env.registry;
    ccfg.sampler = env.sampler;
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
  const std::string expected =
      "decisions=0000000000000000000000000000000000000000\n"
      "correct_words=6600\n"
      "total_words=6600\n"
      "messages_sent=2200\n"
      "deliveries=2145\n"
      "link_duplicates=0\n"
      "link_replays=0\n"
      "words_by_tag=first:3240;second:3360;\n"
      "trace_events=4345\n"
      "trace_hash=4177397218885786687\n";
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
    ba::BaWhp::Config bcfg;
    bcfg.tag = "ba";
    bcfg.params = env.params;
    bcfg.vrf = env.vrf;
    bcfg.registry = env.registry;
    bcfg.sampler = env.sampler;
    bcfg.signer = env.signer;
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
  const std::string expected =
      "decisions=1111111111111111111111\n"
      "correct_words=53328\n"
      "total_words=53328\n"
      "messages_sent=5280\n"
      "deliveries=6798\n"
      "link_duplicates=1928\n"
      "link_replays=626\n"
      "words_by_tag=echo:4752;first:1584;init:3168;ok:42240;second:1584;\n"
      "trace_events=12080\n"
      "trace_hash=9430220647100695956\n";
  EXPECT_EQ(fingerprint(sim, *trace, decisions), expected);
}

}  // namespace
}  // namespace coincidence
