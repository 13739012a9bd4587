// Every layer runs on the Env's own setup. A driver hop that swapped the
// sampler or the batcher for a fresh one would change no word, decision
// or golden; only the Env's shared caches can tell. These runs read them
// after a replicated log (erasure-coded RBC, so the broadcast memo is in
// play) and a binary BA-WHP run. A hop that dropped the batcher fails at
// once: every protocol refuses a setup without one.
#include <gtest/gtest.h>

#include <memory>

#include "ba/approver.h"
#include "ba/ba_whp.h"
#include "ba/mv_ba.h"
#include "coin/shared_coin.h"
#include "coin/whp_coin.h"
#include "committee/sampler.h"
#include "common/errors.h"
#include "core/env.h"
#include "core/runner.h"
#include "session/log_driver.h"

namespace coincidence {
namespace {

/// The Env's BatchVerifier saw coin shares (the coin hop), signature
/// checks (the approver hops) and the sampler cached elections.
void expect_setup_used(const core::Env& env) {
  EXPECT_GT(env.batcher->enqueued(), 0u);
  EXPECT_GT(env.batcher->memo().size(), 0u);
  EXPECT_GT(env.batcher->sig_checks(), 0u);
  const auto sampler =
      std::dynamic_pointer_cast<const committee::CachingSampler>(
          env.sampler);
  ASSERT_NE(sampler, nullptr);
  EXPECT_GT(sampler->sample_cache_size(), 0u);
}

TEST(SetupWiring, ReplicatedLogUsesTheEnvsCaches) {
  const core::Env env = core::Env::make_relaxed(32, 3);
  session::LogRunOptions opts;
  opts.slots = 2;
  opts.pipeline_depth = 2;
  opts.rbc = ba::RbcBackend::kEc;
  opts.sim_seed = 5;
  const session::LogReport r = session::run_replicated_log(env, opts);
  ASSERT_TRUE(r.all_committed);
  EXPECT_TRUE(r.agreement);
  expect_setup_used(env);
  EXPECT_GT(env.batcher->rbc_memo().size(), 0u);
}

TEST(SetupWiring, BinaryAgreementUsesTheEnvsCaches) {
  core::RunOptions o;
  o.protocol = core::Protocol::kBaWhp;
  o.n = 32;
  o.seed = 4;
  const core::Env env = core::env_for(o);
  const core::RunReport r = core::run_agreement(o, env);
  ASSERT_TRUE(r.all_correct_decided);
  expect_setup_used(env);
  // The report reads the same verifier.
  EXPECT_EQ(r.sig_checks, env.batcher->sig_checks());
  EXPECT_EQ(r.verify_enqueued, env.batcher->enqueued());
}

TEST(SetupWiring, EveryProtocolRefusesANullBatcher) {
  core::Env env = core::Env::make_relaxed(16, 2);
  env.batcher = nullptr;
  EXPECT_THROW(coin::WhpCoin(coin::WhpCoin::Config{env}), PreconditionError);
  coin::SharedCoin::Config shared;
  shared.round = 0;
  shared.n = env.n();
  shared.f = env.f();
  shared.vrf = env.vrf;
  shared.registry = env.registry;
  EXPECT_THROW(coin::SharedCoin{shared}, PreconditionError);
  EXPECT_THROW(ba::Approver(ba::Approver::Config{env}, ba::kZero),
               PreconditionError);
  EXPECT_THROW(ba::BaWhp(ba::BaWhp::Config{env}, ba::kZero),
               PreconditionError);
  EXPECT_THROW(ba::MultiValuedBa(ba::MultiValuedBa::Config{env}, Bytes{}),
               PreconditionError);
}

}  // namespace
}  // namespace coincidence
