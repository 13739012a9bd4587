// Shard-invariance suite (ISSUE 8 tentpole contract).
//
// The sharded superstep engine replaces the per-delivery adversary choice
// with a hash-addressed schedule whose every decision is a pure function
// of (seed, canonical route order). The contract: the complete observable
// surface of a run — golden fingerprint, structured JSONL trace, metrics
// JSON export, and the decide values themselves — is byte-identical for
// EVERY shard count and EVERY thread count on the same (seed, config).
// These tests sweep shards {1,2,4,8} x threads {1,8} over a whp_coin
// flip, a ba_whp agreement across duplicating/replaying links with silent
// faults, and a chaos-schedule run, comparing every surface against the
// shards=1/threads=1 reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ba/ba_whp.h"
#include "coin/coin_protocol.h"
#include "coin/whp_coin.h"
#include "committee/sampler.h"
#include "core/env.h"
#include "sim/chaos.h"
#include "sim/simulation.h"
#include "sim/trace.h"

namespace coincidence {
namespace {

using sim::Counter;

struct RunSurface {
  std::string fingerprint;  // decisions + headline metrics + trace hash
  std::string trace_jsonl;  // full structured trace stream
  std::string metrics_json; // Metrics::to_json (detail mode)
  std::string decisions;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

RunSurface surface_of(const sim::Simulation& sim,
                      const sim::TraceRecorder& trace,
                      std::string decisions) {
  RunSurface out;
  std::ostringstream trace_dump;
  trace.dump(trace_dump);
  const sim::Counters& counters = sim.metrics().counters();
  std::ostringstream fp;
  fp << "decisions=" << decisions << "\n"
     << "correct_words=" << sim.metrics().correct_words() << "\n"
     << "total_words=" << sim.metrics().total_words() << "\n"
     << "messages_sent=" << sim.metrics().messages_sent() << "\n"
     << "deliveries=" << sim.metrics().deliveries() << "\n"
     << "link_duplicates=" << counters[Counter::kLinkDuplicates] << "\n"
     << "link_replays=" << counters[Counter::kLinkReplays] << "\n"
     << "words_by_tag=";
  for (const auto& [tag, words] : sim.metrics().words_by_tag())
    fp << tag << ":" << words << ";";
  fp << "\n"
     << "trace_events=" << trace.size() << "\n"
     << "trace_hash=" << fnv1a(trace_dump.str()) << "\n";
  out.fingerprint = fp.str();
  std::ostringstream jsonl;
  trace.dump_jsonl(jsonl);
  out.trace_jsonl = jsonl.str();
  std::ostringstream mj;
  sim.metrics().to_json(mj);
  out.metrics_json = mj.str();
  out.decisions = std::move(decisions);
  return out;
}

/// Every process gets a private sampler cache — the sharded engine runs
/// handlers concurrently, so the Env-shared CachingSampler must not be
/// used (its cache is unsynchronized).
std::shared_ptr<committee::Sampler> private_sampler(const core::Env& env) {
  return std::make_shared<committee::CachingSampler>(
      env.vrf, env.registry, env.params.sample_prob());
}

RunSurface run_whp_coin(std::size_t shards, std::size_t threads) {
  const std::size_t n = 40;
  core::Env env = core::Env::make_relaxed(n, /*seed=*/101);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = 11;
  cfg.shards = shards;
  cfg.threads = threads;
  sim::Simulation sim(cfg);
  sim.metrics().enable_detail();
  auto trace = std::make_shared<sim::TraceRecorder>();
  sim.add_observer(trace);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    coin::WhpCoin::Config ccfg;
    ccfg.tag = "coin";
    ccfg.round = 1;
    ccfg.params = env.params;
    ccfg.vrf = env.vrf;
    ccfg.registry = env.registry;
    ccfg.sampler = private_sampler(env);
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
  return surface_of(sim, *trace, std::move(decisions));
}

RunSurface run_ba_whp(std::size_t shards, std::size_t threads) {
  const std::size_t n = 24;
  core::Env env = core::Env::make_relaxed(n, /*seed=*/202);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = 2;
  cfg.seed = 9;
  cfg.network.default_link.dup_p = 0.25;
  cfg.network.default_link.max_duplicates = 2;
  cfg.network.default_link.replay_p = 0.15;
  cfg.network.default_link.replay_window = 8;
  cfg.shards = shards;
  cfg.threads = threads;
  sim::Simulation sim(cfg);
  sim.metrics().enable_detail();
  auto trace = std::make_shared<sim::TraceRecorder>();
  sim.add_observer(trace);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    ba::BaWhp::Config bcfg;
    bcfg.tag = "ba";
    bcfg.params = env.params;
    bcfg.vrf = env.vrf;
    bcfg.registry = env.registry;
    bcfg.sampler = private_sampler(env);
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
  return surface_of(sim, *trace, std::move(decisions));
}

RunSurface run_chaos(std::size_t shards, std::size_t threads) {
  const std::size_t n = 32;
  core::Env env = core::Env::make_relaxed(n, /*seed=*/303);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = 4;
  cfg.seed = 21;
  cfg.chaos = sim::ChaosSchedule::preset("combined", n);
  cfg.shards = shards;
  cfg.threads = threads;
  sim::Simulation sim(cfg);
  sim.metrics().enable_detail();
  auto trace = std::make_shared<sim::TraceRecorder>();
  sim.add_observer(trace);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    ba::BaWhp::Config bcfg;
    bcfg.tag = "ba";
    bcfg.params = env.params;
    bcfg.vrf = env.vrf;
    bcfg.registry = env.registry;
    bcfg.sampler = private_sampler(env);
    bcfg.signer = env.signer;
    bcfg.max_rounds = 32;
    sim.add_process(std::make_unique<ba::BaWhp>(
        std::move(bcfg), static_cast<ba::Value>(i % 2)));
  }
  sim.start();
  sim.run_until([&] {
    if (sim.chaos_held() != 0) return false;
    for (sim::ProcessId i = 0; i < n; ++i) {
      if (sim.is_corrupted(i)) continue;
      if (!dynamic_cast<ba::BaWhp&>(sim.process(i)).decided()) return false;
    }
    return true;
  });
  std::string decisions;
  for (crypto::ProcessId i = 0; i < n; ++i) {
    if (sim.is_corrupted(i)) {
      decisions += 'x';
      continue;
    }
    const auto& p = dynamic_cast<ba::BaWhp&>(sim.process(i));
    decisions += p.decided() ? ('0' + p.decision()) : '-';
  }
  return surface_of(sim, *trace, std::move(decisions));
}

void expect_invariant(const char* what,
                      RunSurface (*run)(std::size_t, std::size_t)) {
  const RunSurface ref = run(1, 1);
  EXPECT_NE(ref.decisions.find_first_of("01"), std::string::npos)
      << what << ": reference run decided nothing";
  for (std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const RunSurface got = run(shards, threads);
      EXPECT_EQ(got.fingerprint, ref.fingerprint)
          << what << " fingerprint diverged at shards=" << shards
          << " threads=" << threads;
      EXPECT_EQ(got.trace_jsonl, ref.trace_jsonl)
          << what << " trace stream diverged at shards=" << shards
          << " threads=" << threads;
      EXPECT_EQ(got.metrics_json, ref.metrics_json)
          << what << " metrics JSON diverged at shards=" << shards
          << " threads=" << threads;
      EXPECT_EQ(got.decisions, ref.decisions)
          << what << " decisions diverged at shards=" << shards
          << " threads=" << threads;
    }
  }
  // threads > shards must also be harmless (extra workers idle).
  const RunSurface wide = run(2, 8);
  EXPECT_EQ(wide.fingerprint, ref.fingerprint);
}

TEST(ShardedSim, WhpCoinInvariantAcrossShardsAndThreads) {
  expect_invariant("whp_coin", &run_whp_coin);
}

TEST(ShardedSim, BaWhpLossyLinksInvariantAcrossShardsAndThreads) {
  expect_invariant("ba_whp", &run_ba_whp);
}

TEST(ShardedSim, ChaosScheduleInvariantAcrossShardsAndThreads) {
  expect_invariant("chaos", &run_chaos);
}

TEST(ShardedSim, LegacyPathUntouchedByShardConfigZero) {
  // shards=0 must remain the exact legacy loop: the golden fingerprints
  // in test_golden_determinism.cpp pin that; here we only check that a
  // shards=0 run reports no shard telemetry.
  sim::SimConfig cfg;
  cfg.n = 4;
  cfg.seed = 5;
  sim::Simulation sim(cfg);
  EXPECT_FALSE(sim.sharded());
  EXPECT_EQ(sim.shard_count(), 0u);
  EXPECT_EQ(sim.supersteps(), 0u);
  EXPECT_TRUE(sim.shard_stats().empty());
}

TEST(ShardedSim, ShardStatsAccountForEveryDelivery) {
  const RunSurface ref = run_whp_coin(1, 1);  // reference surface
  const std::size_t n = 40;
  core::Env env = core::Env::make_relaxed(n, /*seed=*/101);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = 11;
  cfg.shards = 4;
  cfg.threads = 1;
  sim::Simulation sim(cfg);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    coin::WhpCoin::Config ccfg;
    ccfg.tag = "coin";
    ccfg.round = 1;
    ccfg.params = env.params;
    ccfg.vrf = env.vrf;
    ccfg.registry = env.registry;
    ccfg.sampler = private_sampler(env);
    sim.add_process(std::make_unique<coin::CoinHost>(
        std::make_unique<coin::WhpCoin>(std::move(ccfg))));
  }
  sim.start();
  sim.run();
  ASSERT_EQ(sim.shard_stats().size(), 4u);
  std::uint64_t total = 0;
  for (const sim::ShardStats& s : sim.shard_stats()) total += s.deliveries;
  EXPECT_EQ(total, sim.metrics().deliveries());
  EXPECT_GT(sim.supersteps(), 0u);
  (void)ref;
}

TEST(ShardedSim, ShardsClampedToProcessCount) {
  sim::SimConfig cfg;
  cfg.n = 3;
  cfg.seed = 7;
  cfg.shards = 16;
  sim::Simulation sim(cfg);
  EXPECT_TRUE(sim.sharded());
  EXPECT_EQ(sim.shard_count(), 3u);
}

}  // namespace
}  // namespace coincidence
