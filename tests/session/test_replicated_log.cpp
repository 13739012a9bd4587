// Replicated-log layer (src/session): pipelined MultiValuedBa slots
// deciding a contiguous log over one trusted setup. Covers the log
// properties the per-protocol tests cannot: contiguous commit under
// out-of-order slot decisions, byte-identical logs across processes
// (fingerprint agreement), deterministic client batches, and shard-count
// invariance of the whole stack (RBC + MvBa + skip wakeups + log).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/env.h"
#include "session/log_driver.h"
#include "session/replicated_log.h"

namespace coincidence::session {
namespace {

LogConfig log_config(const core::Env& env) {
  LogConfig cfg;
  cfg.params = env.params;
  cfg.vrf = env.vrf;
  cfg.registry = env.registry;
  cfg.sampler = env.sampler;
  cfg.signer = env.signer;
  cfg.batcher = env.batcher;
  return cfg;
}

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
  // The dissemination bill: n proposals of ~2KB per slot cost n²·|v|
  // words under Bracha and O(n·|v| + n²·λ·log n) under EC — at least
  // 2× total words saved here (RBC dominates the slot cost).
  EXPECT_LT(2 * ec.correct_words, bracha.correct_words);
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

TEST(ReplicatedLog, ClientBatchesAreDeterministicAndDistinct) {
  core::Env env = core::Env::make_relaxed(48, 5);
  LogConfig cfg = log_config(env);
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
