// Replicated-log layer (src/session): pipelined MultiValuedBa slots
// deciding a contiguous log over one trusted setup. Covers the log
// properties the per-protocol tests cannot: contiguous commit under
// out-of-order slot decisions, byte-identical logs across processes
// (fingerprint agreement), deterministic client batches, and shard-count
// invariance of the whole stack (RBC + MvBa + skip wakeups + log).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "coin/verify_queue.h"
#include "common/errors.h"
#include "committee/params.h"
#include "committee/sampler.h"
#include "core/env.h"
#include "core/session.h"
#include "session/log_driver.h"
#include "session/replicated_log.h"
#include "sim/simulation.h"

namespace coincidence::session {
namespace {

TEST(ReplicatedLog, CommitsFullLogWithAgreementAndLatencies) {
  core::Env env = core::Env::make_relaxed(48, 31);
  LogRunOptions opts;
  opts.slots = 4;
  opts.pipeline_depth = 2;
  opts.batch_size = 4;
  opts.sim_seed = 3;
  LogReport r = run_replicated_log(env, opts);

  ASSERT_TRUE(r.all_committed);
  EXPECT_TRUE(r.agreement);
  EXPECT_EQ(r.noop_slots, 0u);
  // Every slot adopted exactly one proposer's batch of 4 requests.
  EXPECT_EQ(r.requests_committed, 16u);
  EXPECT_GT(r.requests_per_100k_deliveries, 0.0);
  EXPECT_EQ(r.fingerprint.size(), 64u);  // hex sha256
  // Decide latencies are measured on the delivery clock and ordered.
  EXPECT_GT(r.decide_latency_p50, 0u);
  EXPECT_LE(r.decide_latency_p50, r.decide_latency_p90);
  EXPECT_LE(r.decide_latency_p90, r.decide_latency_max);
}

TEST(ReplicatedLog, SixteenSlotsCommitUnderSilentFaults) {
  // The 16-slot regression the binary session wedged on (14/16 in
  // BENCH_session.json): the log layer must decide and commit every
  // slot with the auto-scaled skip fallback armed.
  core::Env env = core::Env::make_relaxed(48, 15);
  LogRunOptions opts;
  opts.slots = 16;
  opts.pipeline_depth = 4;
  opts.batch_size = 4;
  opts.silent_faults = 2;
  opts.sim_seed = 23;
  LogReport r = run_replicated_log(env, opts);

  ASSERT_TRUE(r.all_committed);
  EXPECT_TRUE(r.agreement);
  EXPECT_EQ(r.requests_committed, 16u * 4u - 4u * r.noop_slots);
}

TEST(ReplicatedLog, ShardCountCannotLeakIntoTheLog) {
  core::Env env = core::Env::make_relaxed(48, 21);
  std::optional<LogReport> base;
  for (std::size_t shards : {1, 2, 4, 8}) {
    LogRunOptions opts;
    opts.slots = 4;
    opts.pipeline_depth = 2;
    opts.batch_size = 2;
    opts.silent_faults = 1;
    opts.sim_seed = 21;
    opts.shards = shards;
    LogReport r = run_replicated_log(env, opts);
    ASSERT_TRUE(r.all_committed) << "shards=" << shards;
    ASSERT_TRUE(r.agreement) << "shards=" << shards;
    if (!base) {
      base = std::move(r);
      continue;
    }
    // The whole stack — RBC, candidate BAs, skip wakeups, commit order —
    // must be a function of (seed, n) only; shards partition the work.
    EXPECT_EQ(r.fingerprint, base->fingerprint) << "shards=" << shards;
    EXPECT_EQ(r.deliveries, base->deliveries) << "shards=" << shards;
    EXPECT_EQ(r.correct_words, base->correct_words) << "shards=" << shards;
    EXPECT_EQ(r.messages, base->messages) << "shards=" << shards;
    EXPECT_EQ(r.duration, base->duration) << "shards=" << shards;
    EXPECT_EQ(r.requests_committed, base->requests_committed);
    EXPECT_EQ(r.decide_latency_p50, base->decide_latency_p50);
    EXPECT_EQ(r.rounds_skipped, base->rounds_skipped);
  }
}

TEST(ReplicatedLog, ErasureCodedBackendCommitsTheSameRequests) {
  // Same Env, same seeds, both dissemination backends: the committed
  // logs must both satisfy the layer's contract (full commit, agreement,
  // every batch some proposer's), and the EC backend must pay fewer
  // dissemination words — the whole point of the AVID-M path.
  core::Env env = core::Env::make_relaxed(48, 31);
  LogRunOptions opts;
  opts.slots = 4;
  opts.pipeline_depth = 2;
  // 64-request batches (~2KB proposals): past the crossover where the
  // coded path's per-echo λ·log2(n) branch overhead is amortized by the
  // k-fold fragment shrink. (At the 4-request default the branch words
  // dominate a 120-byte value and Bracha is honestly cheaper.)
  opts.batch_size = 64;
  opts.silent_faults = 2;
  opts.sim_seed = 7;

  opts.rbc = ba::RbcBackend::kBracha;
  LogReport bracha = run_replicated_log(env, opts);
  opts.rbc = ba::RbcBackend::kEc;
  LogReport ec = run_replicated_log(env, opts);

  ASSERT_TRUE(bracha.all_committed);
  ASSERT_TRUE(ec.all_committed);
  EXPECT_TRUE(bracha.agreement);
  EXPECT_TRUE(ec.agreement);
  // Every slot adopts some proposer's batch on both backends.
  EXPECT_EQ(bracha.noop_slots, 0u);
  EXPECT_EQ(ec.noop_slots, 0u);
  // Candidate races can resolve differently (the word schedule reshapes
  // the delivery interleaving), so the adopted batches may differ — but
  // both backends commit full batches of batch_size requests.
  EXPECT_EQ(bracha.requests_committed,
            64u * (opts.slots - bracha.noop_slots));
  EXPECT_EQ(ec.requests_committed, 64u * (opts.slots - ec.noop_slots));
  // The dissemination bill: each of a slot's ~2KB proposal broadcasts
  // costs n²·|v| words under Bracha and O(n·|v| + n²·λ·log n) under EC
  // — at least 2× fewer RBC words here.
  EXPECT_LT(2 * ec.rbc_words, bracha.rbc_words);
  EXPECT_LT(bracha.rbc_words, bracha.correct_words);
}

TEST(ReplicatedLog, SlotWordsAreSubCubic) {
  // A slot broadcasts K = f + 1 proposals below the cap of 8 (3 at
  // n = 32, 6 at n = 64), not n, and each broadcast costs (3f + 1)·n
  // echo words: doubling n multiplies a broadcast's words by about 2²,
  // where n broadcasts per slot would cost 2³. ~2KB proposals make the
  // broadcasts the bulk of a slot (2^1.68 per broadcast here).
  auto slot_words = [](std::size_t n) {
    LogRunOptions opts;
    opts.slots = 1;
    opts.pipeline_depth = 1;
    opts.batch_size = 64;
    opts.sim_seed = 5;
    const LogReport r = run_replicated_log(core::Env::make_relaxed(n, 7), opts);
    EXPECT_TRUE(r.all_committed) << "n=" << n;
    EXPECT_EQ(r.noop_slots, 0u) << "n=" << n;
    return static_cast<double>(r.correct_words);
  };
  auto broadcasters = [](std::size_t n) {
    return static_cast<double>(core::Env::make_relaxed(n, 7).f() + 1);
  };
  const double w32 = slot_words(32);
  const double w64 = slot_words(64);
  EXPECT_LT((w64 / broadcasters(64)) / (w32 / broadcasters(32)),
            std::pow(2.0, 2.5));
  // The same slots cost 1,751,712 and 6,832,448 words when all 8 capped
  // ranks broadcast, and 715,680 and 5,185,856 when K ranks broadcast
  // but all n processes echo; echo sets of 7 and 16 cut that 3–3.5×.
  EXPECT_LT(w32, 715680.0 / 2);
  EXPECT_LT(w64, 5185856.0 / 2);
}

TEST(ReplicatedLog, ErasureCodedShardCountCannotLeakIntoTheLog) {
  // The shard-invariance contract must hold on the EC backend too: its
  // encode/decode work happens inside handlers, but every observable —
  // sends, readies, deliveries, telemetry — replays in canonical order.
  core::Env env = core::Env::make_relaxed(48, 21);
  std::optional<LogReport> base;
  for (std::size_t shards : {1, 2, 4, 8}) {
    LogRunOptions opts;
    opts.slots = 4;
    opts.pipeline_depth = 2;
    opts.batch_size = 2;
    opts.silent_faults = 1;
    opts.sim_seed = 21;
    opts.shards = shards;
    opts.rbc = ba::RbcBackend::kEc;
    LogReport r = run_replicated_log(env, opts);
    ASSERT_TRUE(r.all_committed) << "shards=" << shards;
    ASSERT_TRUE(r.agreement) << "shards=" << shards;
    if (!base) {
      base = std::move(r);
      continue;
    }
    EXPECT_EQ(r.fingerprint, base->fingerprint) << "shards=" << shards;
    EXPECT_EQ(r.deliveries, base->deliveries) << "shards=" << shards;
    EXPECT_EQ(r.correct_words, base->correct_words) << "shards=" << shards;
    EXPECT_EQ(r.messages, base->messages) << "shards=" << shards;
    EXPECT_EQ(r.duration, base->duration) << "shards=" << shards;
    EXPECT_EQ(r.requests_committed, base->requests_committed);
    EXPECT_EQ(r.decide_latency_p50, base->decide_latency_p50);
    EXPECT_EQ(r.rounds_skipped, base->rounds_skipped);
  }
}

// Runs a 2-slot replicated log (one silent fault) on `env`.
LogReport ddh_golden_run(const core::Env& env) {
  LogRunOptions opts;
  opts.slots = 2;
  opts.pipeline_depth = 2;
  opts.batch_size = 2;
  opts.silent_faults = 1;
  opts.sim_seed = 9;
  return run_replicated_log(env, opts);
}

TEST(ReplicatedLog, DdhGoldenN16) {
  // The replicated log over the real DDH VRF (64-bit group), pinned: the
  // committed log's fingerprint, the words and the deliveries. At n = 16
  // the relaxed d = 0.02 puts W = 17 above n, so the test re-derives the
  // committee parameters at d = 0.001 (W = 15) over the same DDH keys.
  // λ = 8 ln 16 > n puts every process on every committee, so this run
  // pins the shape of a DDH run; DdhGoldenN32 is the one whose words and
  // deliveries move with the VRF bytes.
  core::Env env = core::Env::make_relaxed_ddh(16, 5, 64);
  env.params = committee::Params::derive(16, 0.25, 0.001, /*strict=*/false);
  env.sampler = std::make_shared<committee::CachingSampler>(
      env.vrf, env.registry, env.params.sample_prob());
  env.batcher = std::make_shared<coin::BatchVerifier>(
      coin::BatchVerifier::Config{env.vrf, env.sampler, env.signer});
  const LogReport r = ddh_golden_run(env);
  ASSERT_TRUE(r.all_committed);
  EXPECT_TRUE(r.agreement);
  EXPECT_EQ(r.fingerprint,
            "06bd642b099cf63d9e00aab9f71ba2159d0100adfb0809a93844320b88558afe");
  EXPECT_EQ(r.correct_words, 59972u);
  EXPECT_EQ(r.deliveries, 5739u);
}

TEST(ReplicatedLog, DdhGoldenN32) {
  // n = 32 samples committees by VRF value (p = λ/n < 1), so every
  // election output steers who speaks: a change to the DDH arithmetic
  // that moves any VRF byte moves the words and the deliveries.
  const LogReport r = ddh_golden_run(core::Env::make_relaxed_ddh(32, 5, 64));
  ASSERT_TRUE(r.all_committed);
  EXPECT_TRUE(r.agreement);
  EXPECT_EQ(r.fingerprint,
            "53fc270f08c65d9c40c89a703d6ee99255e7d467f192f51b7ae7736b44dabf85");
  EXPECT_EQ(r.correct_words, 198726u);
  EXPECT_EQ(r.deliveries, 15814u);
}

TEST(ReplicatedLog, RefusesAQuorumNoCommitteeCanReach) {
  // n = 16 at the relaxed d = 0.02 derives W = 17 > n: no committee can
  // ever gather W members, so both entry points refuse before the first
  // delivery instead of spinning to the delivery budget, on either VRF.
  for (const core::Env& env : {core::Env::make_relaxed(16, 5),
                               core::Env::make_relaxed_ddh(16, 5, 64)}) {
    ASSERT_GT(env.params.W, env.n());
    for (std::size_t silent : {0, 1}) {
      LogRunOptions opts;
      opts.slots = 2;
      opts.silent_faults = silent;
      try {
        run_replicated_log(env, opts);
        ADD_FAILURE() << "no ConfigError at silent=" << silent;
      } catch (const ConfigError& e) {
        const std::string what = e.what();
        for (const std::string& part : std::vector<std::string>{
                 "W=17", "16 - " + std::to_string(silent), "d=0.02"})
          EXPECT_NE(what.find(part), std::string::npos) << what;
      }
      core::Session session(env);
      EXPECT_THROW(session.run_concurrent_slots(
                       {std::vector<ba::Value>(16, 1)}, 3, silent),
                   ConfigError);
    }
  }
  // W = n − silent is reachable: the d = 0.001 parameters of DdhGoldenN16
  // (W = 15) with one silent process pass the check.
  committee::Params::derive(16, 0.25, 0.001, /*strict=*/false)
      .require_reachable_quorum(1);
}

TEST(ReplicatedLog, CraftedTagsTwiceCannotStallOrSplitTheLog) {
  // One Byzantine process injects tags that the hand-rolled slot,
  // candidate and round parsers once read differently on the first and
  // the second sighting (a 32-bit memo aliased 2^32 to candidate 0): a
  // leading zero, a 20-digit overflow, 2^32 aliases, bad separators,
  // empty indices, bare prefixes and out-of-limit indices. Each reaches
  // every correct process twice — once at the start, once after every
  // correct process activated slot 0's first candidate — and the log
  // must still commit in full, identically everywhere.
  constexpr std::size_t n = 32;
  constexpr sim::ProcessId byz = n - 1;
  const core::Env env = core::Env::make_relaxed(n, 17);
  env.params.require_reachable_quorum(1);
  LogConfig lcfg{env};
  lcfg.total_slots = 2;
  lcfg.pipeline_depth = 2;
  lcfg.batch_size = 2;
  lcfg.skip_timeout = auto_skip_timeout(n, lcfg.pipeline_depth);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = 1;
  cfg.seed = 11;
  sim::Simulation sim(cfg);
  for (std::size_t i = 0; i < n; ++i)
    sim.add_process(std::make_unique<LogProcess>(lcfg));
  sim.corrupt(byz, sim::FaultPlan::silent());
  auto log_of = [&](sim::ProcessId i) -> LogProcess& {
    return dynamic_cast<LogProcess&>(sim.process(i));
  };

  const std::vector<std::string> crafted = {
      "slot01/c0/0/a1/init",
      "slot18446744073709551616/c0/0/a1/init",
      "slot4294967296/c0/0/a1/init",
      "slot0/c4294967296/0/a1/init",
      "slot0/c18446744073709551616/0/a1/init",
      "slot0/c01/0/a1/init",
      "slot0/c0/01/a1/init",
      "slot0/c0/4294967296/skip",
      "slot0X/c0/0/a1/init",
      "slot0/c0X/0/a1/init",
      "slot0/c0/0X/skip",
      "slot/c0/0/a1/init",
      "slot0/c/0/a1/init",
      "slot0/c0//skip",
      "slot",
      "slot0/c",
      "slot0/c0/",
      "slot2/c0/0/a1/init",
      "slot0/c8/0/a1/init",
  };
  auto inject_all = [&] {
    for (const std::string& tag : crafted)
      for (sim::ProcessId to = 0; to < byz; ++to)
        sim.inject(byz, to, tag, bytes_of("junk"), 1);
  };

  sim.start();
  inject_all();
  ASSERT_TRUE(sim.run_until([&] {
    for (sim::ProcessId i = 0; i < byz; ++i)
      if (log_of(i).slots_activated() == 0 ||
          log_of(i).slot_instance(0).candidates_activated() == 0)
        return false;
    return true;
  }));
  inject_all();
  sim.run_until([&] {
    for (sim::ProcessId i = 0; i < byz; ++i)
      if (!log_of(i).all_committed()) return false;
    return true;
  });

  for (sim::ProcessId i = 0; i < byz; ++i) {
    ASSERT_TRUE(log_of(i).all_committed()) << "process " << i;
    EXPECT_EQ(log_of(i).log_fingerprint(), log_of(0).log_fingerprint())
        << "process " << i;
  }
}

TEST(ReplicatedLog, CappedPrefixAtNAbove96RunsOneCandidatePerSlot) {
  // At n = 128 (f = 10) the cap puts K = 8 <= f. The gate still waits
  // for one delivery, and past it as long again, so every process
  // inputs 1 to candidate 0 and no slot runs a candidate BA on all-zero
  // inputs.
  constexpr std::size_t n = 128;
  const core::Env env = core::Env::make_relaxed(n, 7);
  LogRunOptions opts;
  opts.slots = 2;
  opts.pipeline_depth = 2;
  opts.batch_size = 2;
  opts.silent_faults = 2;
  opts.sim_seed = 5;
  ASSERT_LE(opts.max_candidates, env.f());
  const LogReport r = run_replicated_log(env, opts);
  ASSERT_TRUE(r.all_committed);
  EXPECT_TRUE(r.agreement);
  EXPECT_EQ(r.noop_slots, 0u);
  EXPECT_EQ(r.candidates_per_slot, 1.0);
}

TEST(ReplicatedLog, StalledRunStillCountsItsCandidates) {
  // One round is too few for seed 3: a candidate BA needs a second
  // round, halts at the horizon undecided, and no correct process
  // commits the log. The candidates every process activated still
  // count: an average over committed processes only would read 0.
  constexpr std::size_t n = 48;
  const core::Env env = core::Env::make_relaxed(n, 3);
  LogRunOptions opts;
  opts.slots = 2;
  opts.pipeline_depth = 2;
  opts.batch_size = 2;
  opts.silent_faults = 2;
  opts.max_rounds = 1;
  opts.sim_seed = 3;
  const LogReport r = run_replicated_log(env, opts);
  ASSERT_FALSE(r.all_committed);
  EXPECT_GE(r.candidates_per_slot, 1.0);
}

TEST(ReplicatedLog, SilencedCappedPrefixClosesEverySlotNoop) {
  // A cap of 2 at n = 64 (f = 5) lets the adversary silence both slots'
  // whole prefixes. No broadcast ever delivers, so the armed gate opens
  // K skip budgets after the slot started, every candidate BA decides 0,
  // and each slot closes no-op instead of waiting forever. One more
  // faulty process sends an undecodable echo on each slot's broadcast
  // tag every skip budget: junk cannot push the deadline back.
  constexpr std::size_t n = 64;
  const core::Env env = core::Env::make_relaxed(n, 9);
  LogConfig lcfg{env};
  lcfg.total_slots = 2;
  lcfg.pipeline_depth = 2;
  lcfg.batch_size = 2;
  lcfg.max_candidates = 2;
  lcfg.skip_timeout = auto_skip_timeout(n, lcfg.pipeline_depth);
  std::set<sim::ProcessId> faulty;
  for (std::size_t s = 0; s < lcfg.total_slots; ++s) {
    ba::MultiValuedBa::Config mcfg{env};
    mcfg.tag = lcfg.slot_prefix + std::to_string(s);
    const auto rank = ba::MultiValuedBa(mcfg, Bytes{}).rank_order();
    faulty.insert(rank.begin(), rank.begin() + 2);
  }
  sim::ProcessId junk = n - 1;
  while (faulty.count(junk)) --junk;
  faulty.insert(junk);
  ASSERT_LE(faulty.size(), env.f());
  env.params.require_reachable_quorum(faulty.size());

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = faulty.size();
  cfg.seed = 3;
  sim::Simulation sim(cfg);
  for (std::size_t i = 0; i < n; ++i)
    sim.add_process(std::make_unique<LogProcess>(lcfg));
  for (sim::ProcessId p : faulty) sim.corrupt(p, sim::FaultPlan::silent());
  auto log_of = [&](sim::ProcessId i) -> const LogProcess& {
    return dynamic_cast<const LogProcess&>(sim.process(i));
  };
  auto committed = [&] {
    for (sim::ProcessId i = 0; i < n; ++i)
      if (!faulty.count(i) && !log_of(i).all_committed()) return false;
    return true;
  };

  sim.start();
  // Every slot closes within a few budgets; a gate that junk holds shut
  // would keep the log open through all of them.
  constexpr std::size_t kBudgets = 24;
  std::size_t budgets = 0;
  for (; budgets < kBudgets && !committed(); ++budgets) {
    for (std::size_t s = 0; s < lcfg.total_slots; ++s)
      for (sim::ProcessId to = 0; to < n; ++to)
        if (!faulty.count(to))
          sim.inject(junk, to,
                     lcfg.slot_prefix + std::to_string(s) + "/rbc/echo",
                     bytes_of("junk"), 1);
    const std::uint64_t until = sim.deliveries() + lcfg.skip_timeout;
    sim.run_until([&] { return committed() || sim.deliveries() >= until; });
  }
  ASSERT_LT(budgets, kBudgets);

  std::optional<crypto::Digest> fingerprint;
  for (sim::ProcessId i = 0; i < n; ++i) {
    if (faulty.count(i)) continue;
    const LogProcess& log = log_of(i);
    ASSERT_TRUE(log.all_committed()) << "process " << i;
    if (!fingerprint) fingerprint = log.log_fingerprint();
    EXPECT_EQ(log.log_fingerprint(), *fingerprint) << "process " << i;
    for (std::size_t s = 0; s < lcfg.total_slots; ++s) {
      EXPECT_TRUE(log.slot_instance(s).decided_noop()) << "process " << i;
      EXPECT_EQ(log.slot_instance(s).candidates_activated(), 2u);
    }
  }
}

TEST(ReplicatedLog, ClientBatchesAreDeterministicAndDistinct) {
  core::Env env = core::Env::make_relaxed(48, 5);
  LogConfig cfg{env};
  cfg.batch_size = 3;
  LogProcess a(cfg), b(cfg);

  // Same (seed, proposer, slot) => same batch on every replica; any
  // coordinate change => a different batch.
  EXPECT_EQ(a.batch_for(7, 2), b.batch_for(7, 2));
  EXPECT_NE(a.batch_for(7, 2), a.batch_for(7, 3));
  EXPECT_NE(a.batch_for(7, 2), a.batch_for(8, 2));

  // batch_size requests, newline-joined, tagged with the proposer.
  const Bytes batch = a.batch_for(7, 2);
  const std::string s(batch.begin(), batch.end());
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);
  EXPECT_EQ(s.rfind("c7-", 0), 0u);

  LogConfig other = cfg;
  other.client_seed = 0xDEAD;
  LogProcess c(other);
  EXPECT_NE(a.batch_for(7, 2), c.batch_for(7, 2));
}

TEST(ReplicatedLog, AutoSkipTimeoutScalesWithLoad) {
  // The silence budget grows with n (bigger committees, more traffic
  // per round) and with the pipeline depth (concurrent slots share the
  // delivery clock).
  EXPECT_EQ(auto_skip_timeout(48, 1), 192u * 48u);
  EXPECT_EQ(auto_skip_timeout(48, 4), 192u * 48u * 4u);
  EXPECT_LT(auto_skip_timeout(48, 2), auto_skip_timeout(96, 2));
  // Depth 0 is clamped — the fallback never gets a zero budget.
  EXPECT_EQ(auto_skip_timeout(48, 0), auto_skip_timeout(48, 1));
}

}  // namespace
}  // namespace coincidence::session
