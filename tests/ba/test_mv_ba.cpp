// MultiValuedBa: the leaderless reduction of arbitrary-value agreement
// to binary BA WHP (mv_ba.h). These tests check the multivalued
// properties the binary harness cannot express: agreement on a *payload*
// (not a bit), validity (the decided payload is some correct process's
// actual proposal), the no-op close-out when the candidate pool runs
// dry, and determinism of the candidate examination order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ba/mv_ba.h"
#include "common/errors.h"
#include "core/env.h"
#include "sim/simulation.h"

namespace coincidence::ba {
namespace {

Bytes proposal_of(sim::ProcessId p) {
  return bytes_of("req-from-" + std::to_string(p));
}

MultiValuedBa::Config base_config(const core::Env& env,
                                  const std::string& tag = "mvba") {
  MultiValuedBa::Config cfg{env};
  cfg.tag = tag;
  return cfg;
}

struct MvRun {
  std::size_t n;
  sim::Simulation sim;
  explicit MvRun(sim::SimConfig cfg) : n(cfg.n), sim(cfg) {}

  MultiValuedBa& at(sim::ProcessId i) {
    return dynamic_cast<MultiValuedBa&>(sim.process(i));
  }
  bool all_correct_decided() {
    for (sim::ProcessId i = 0; i < n; ++i) {
      if (sim.is_corrupted(i)) continue;
      if (!at(i).decided()) return false;
    }
    return true;
  }
};

std::unique_ptr<MvRun> run_mv(const core::Env& env, std::uint64_t seed,
                              std::size_t silent,
                              const MultiValuedBa::Config& cfg) {
  sim::SimConfig scfg;
  scfg.n = env.n();
  scfg.f = silent;
  scfg.seed = seed;
  auto run = std::make_unique<MvRun>(scfg);
  for (sim::ProcessId i = 0; i < env.n(); ++i)
    run->sim.add_process(
        std::make_unique<MultiValuedBa>(cfg, proposal_of(i)));
  for (std::size_t i = 0; i < silent; ++i)
    run->sim.corrupt(static_cast<sim::ProcessId>(env.n() - 1 - i),
                     sim::FaultPlan::silent());
  run->sim.start();
  run->sim.run_until([&] { return run->all_correct_decided(); });
  return run;
}

TEST(MultiValuedBaTest, DistinctProposalsAgreeOnOneValidValue) {
  core::Env env = core::Env::make_relaxed(48, 21);
  auto run = run_mv(env, /*seed=*/3, /*silent=*/0, base_config(env));
  ASSERT_TRUE(run->all_correct_decided());

  const MultiValuedBa& first = run->at(0);
  ASSERT_FALSE(first.decided_noop());
  const sim::ProcessId proposer = first.decided_proposer();
  for (sim::ProcessId i = 0; i < env.n(); ++i) {
    const MultiValuedBa& p = run->at(i);
    EXPECT_EQ(p.decision(), first.decision());
    EXPECT_EQ(p.decided_proposer(), proposer);
    // Agreement on the payload, and validity: the payload is exactly
    // what `proposer` fed into its RBC.
    EXPECT_EQ(p.decided_value(), proposal_of(proposer));
  }
}

TEST(MultiValuedBaTest, ToleratesSilentFaultsAndAdoptsCorrectProposer) {
  core::Env env = core::Env::make_relaxed(48, 22);
  MultiValuedBa::Config cfg = base_config(env);
  // Exercise the skip-fallback wakeup plumbing through the reduction —
  // healthy runs must decide with or without it armed.
  cfg.skip_timeout = 30000;
  auto run = run_mv(env, /*seed=*/7, /*silent=*/env.f(), cfg);
  ASSERT_TRUE(run->all_correct_decided());

  const MultiValuedBa& first = run->at(0);
  ASSERT_FALSE(first.decided_noop());
  const sim::ProcessId proposer = first.decided_proposer();
  // A silent-from-birth proposer never broadcasts, so its candidate can
  // only lose its BA: the adopted proposer must be a correct process.
  EXPECT_FALSE(run->sim.is_corrupted(proposer));
  for (sim::ProcessId i = 0; i < env.n(); ++i) {
    if (run->sim.is_corrupted(i)) continue;
    EXPECT_EQ(run->at(i).decided_value(), proposal_of(proposer));
  }
}

TEST(MultiValuedBaTest, NoopDecisionWhenCandidatePoolExhausted) {
  core::Env env = core::Env::make_relaxed(48, 23);
  MultiValuedBa::Config cfg = base_config(env);
  cfg.max_candidates = 1;
  // Silence the single eligible candidate: its RBC never starts, every
  // correct process inputs 0, the lone BA decides 0, and the instance
  // must close with the no-op decision instead of hanging.
  const sim::ProcessId head =
      MultiValuedBa(cfg, Bytes{}).rank_order().front();

  sim::SimConfig scfg;
  scfg.n = env.n();
  scfg.f = 1;
  scfg.seed = 9;
  MvRun run(scfg);
  for (sim::ProcessId i = 0; i < env.n(); ++i)
    run.sim.add_process(std::make_unique<MultiValuedBa>(cfg, proposal_of(i)));
  run.sim.corrupt(head, sim::FaultPlan::silent());
  run.sim.start();
  run.sim.run_until([&] { return run.all_correct_decided(); });
  ASSERT_TRUE(run.all_correct_decided());
  for (sim::ProcessId i = 0; i < env.n(); ++i) {
    if (run.sim.is_corrupted(i)) continue;
    EXPECT_TRUE(run.at(i).decided_noop());
    EXPECT_EQ(run.at(i).decision(), -1);
    EXPECT_TRUE(run.at(i).decided_value().empty());
  }
}

TEST(MultiValuedBaTest, RankOrderIsADeterministicTagKeyedPermutation) {
  core::Env env = core::Env::make_relaxed(48, 24);
  MultiValuedBa a(base_config(env, "slot0"), Bytes{});
  MultiValuedBa b(base_config(env, "slot0"), Bytes{});
  MultiValuedBa c(base_config(env, "slot1"), Bytes{});

  EXPECT_EQ(a.rank_order(), b.rank_order());  // same tag, same order
  EXPECT_NE(a.rank_order(), c.rank_order());  // fresh order per slot tag

  // Each order is a permutation of all n proposers.
  std::vector<bool> seen(env.n(), false);
  for (sim::ProcessId p : a.rank_order()) {
    ASSERT_LT(p, env.n());
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
  EXPECT_EQ(a.rank_order().size(), env.n());
}

TEST(MultiValuedBaTest, AccessorsRequireADecision) {
  core::Env env = core::Env::make_relaxed(48, 25);
  MultiValuedBa undecided(base_config(env), bytes_of("x"));
  EXPECT_FALSE(undecided.decided());
  EXPECT_THROW(undecided.decided_value(), PreconditionError);
  EXPECT_THROW(undecided.decided_proposer(), PreconditionError);
}

}  // namespace
}  // namespace coincidence::ba
