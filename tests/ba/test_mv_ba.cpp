// MultiValuedBa: the leaderless reduction of arbitrary-value agreement
// to binary BA WHP (mv_ba.h). These tests check the multivalued
// properties the binary harness cannot express: agreement on a *payload*
// (not a bit), validity (the decided payload is some correct process's
// actual proposal), the no-op close-out when the candidate pool runs
// dry, and determinism of the candidate examination order.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ba/mv_ba.h"
#include "common/errors.h"
#include "common/ser.h"
#include "core/env.h"
#include "sim/observer.h"
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

/// Runs one instance with the processes in `silenced` silent from birth.
/// `observer` (optional) watches the run; `after_start` (optional) runs
/// between start() and the run to decision, e.g. to inject traffic.
std::unique_ptr<MvRun> run_silencing(
    const core::Env& env, std::uint64_t seed,
    const std::vector<sim::ProcessId>& silenced,
    const MultiValuedBa::Config& cfg,
    std::shared_ptr<sim::Observer> observer = nullptr,
    const std::function<void(sim::Simulation&)>& after_start = {}) {
  sim::SimConfig scfg;
  scfg.n = env.n();
  scfg.f = silenced.size();
  scfg.seed = seed;
  auto run = std::make_unique<MvRun>(scfg);
  if (observer) run->sim.add_observer(std::move(observer));
  for (sim::ProcessId i = 0; i < env.n(); ++i)
    run->sim.add_process(
        std::make_unique<MultiValuedBa>(cfg, proposal_of(i)));
  for (sim::ProcessId p : silenced)
    run->sim.corrupt(p, sim::FaultPlan::silent());
  run->sim.start();
  if (after_start) after_start(run->sim);
  run->sim.run_until([&] { return run->all_correct_decided(); });
  return run;
}

/// Silences the `silent` highest ids.
std::unique_ptr<MvRun> run_mv(const core::Env& env, std::uint64_t seed,
                              std::size_t silent,
                              const MultiValuedBa::Config& cfg) {
  std::vector<sim::ProcessId> silenced;
  for (std::size_t i = 0; i < silent; ++i)
    silenced.push_back(static_cast<sim::ProcessId>(env.n() - 1 - i));
  return run_silencing(env, seed, silenced, cfg);
}

/// Records who correct processes disseminate for: the senders of
/// proposal initials, and the sources named by their echoes (both RBC
/// backends open an echo with the u32 source).
class DisseminationLog final : public sim::Observer {
 public:
  void on_send(const sim::Message& msg, bool sender_correct) override {
    if (!sender_correct) return;
    const std::string& tag = msg.tag.str();
    if (tag.ends_with("/rbc/initial")) {
      initial_senders.insert(msg.from);
    } else if (tag.ends_with("/rbc/echo")) {
      Reader r(msg.payload);
      echoed_sources.insert(r.u32());
    }
  }

  std::set<sim::ProcessId> initial_senders;
  std::set<sim::ProcessId> echoed_sources;
};

TEST(MultiValuedBaTest, DistinctProposalsAgreeOnOneValidValue) {
  core::Env env = core::Env::make_relaxed(48, 21);
  auto run = run_mv(env, /*seed=*/3, /*silent=*/0, base_config(env));
  ASSERT_TRUE(run->all_correct_decided());

  const MultiValuedBa& first = run->at(0);
  ASSERT_FALSE(first.decided_noop());
  const sim::ProcessId proposer = first.decided_proposer();
  // max_candidates = 0 leaves K = f + 1 = 4: the first four ranks
  // broadcast, and the run is pinned.
  EXPECT_EQ(proposer, 34u);
  EXPECT_EQ(first.rbc_delivered_count(), 4u);
  EXPECT_EQ(run->sim.metrics().correct_words(), 169176u);
  EXPECT_EQ(run->sim.deliveries(), 15220u);
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

TEST(MultiValuedBaTest, OnlyTheRankPrefixBroadcasts) {
  // Only the first K = min(f + 1, max_candidates) ranks can be adopted,
  // so only they broadcast, on either backend: f + 1 below the cap of 8
  // (f = 2 at n = 32, f = 3 at n = 48), the cap at n = 128 (f = 10).
  for (const auto [n, k] : {std::pair<std::size_t, std::size_t>{32, 3},
                            {48, 4},
                            {128, 8}}) {
    core::Env env = core::Env::make_relaxed(n, 21);
    for (RbcBackend backend : {RbcBackend::kBracha, RbcBackend::kEc}) {
      const std::string where = "n=" + std::to_string(n) + " " +
                                std::string(to_string(backend));
      MultiValuedBa::Config cfg = base_config(env);
      cfg.max_candidates = 8;
      cfg.rbc = backend;
      const std::vector<sim::ProcessId> rank =
          MultiValuedBa(cfg, Bytes{}).rank_order();
      const std::set<sim::ProcessId> prefix(
          rank.begin(), rank.begin() + static_cast<std::ptrdiff_t>(k));
      auto log = std::make_shared<DisseminationLog>();
      auto run = run_silencing(env, /*seed=*/3, {}, cfg, log);
      ASSERT_TRUE(run->all_correct_decided()) << where;
      EXPECT_EQ(log->initial_senders, prefix) << where;
      EXPECT_EQ(log->echoed_sources, prefix) << where;
      for (sim::ProcessId i = 0; i < env.n(); ++i) {
        ASSERT_FALSE(run->at(i).decided_noop()) << where;
        EXPECT_EQ(prefix.count(run->at(i).decided_proposer()), 1u) << where;
        EXPECT_LE(run->at(i).rbc_delivered_count(), k) << where;
      }
    }
  }
}

TEST(MultiValuedBaTest, SilencingTheFLowestRanksAdoptsRankF) {
  // K = f + 1 ranks always hold a correct proposer. With the f lowest
  // silent, the gate's one-delivery quorum can only be rank f's own
  // broadcast, so every correct process inputs 0 to the f silent
  // candidates and 1 to rank f, and adopts its proposal.
  core::Env env = core::Env::make_relaxed(48, 27);
  for (RbcBackend backend : {RbcBackend::kBracha, RbcBackend::kEc}) {
    MultiValuedBa::Config cfg = base_config(env);
    cfg.rbc = backend;
    cfg.skip_timeout = 30000;  // a committee short of W live members
    const std::vector<sim::ProcessId> rank =
        MultiValuedBa(cfg, Bytes{}).rank_order();
    const std::vector<sim::ProcessId> silenced(
        rank.begin(), rank.begin() + static_cast<std::ptrdiff_t>(env.f()));
    auto run = run_silencing(env, /*seed=*/13, silenced, cfg);
    ASSERT_TRUE(run->all_correct_decided()) << to_string(backend);
    for (sim::ProcessId i = 0; i < env.n(); ++i) {
      if (run->sim.is_corrupted(i)) continue;
      const MultiValuedBa& p = run->at(i);
      ASSERT_FALSE(p.decided_noop()) << to_string(backend);
      EXPECT_EQ(p.decision(), static_cast<int>(env.f())) << to_string(backend);
      EXPECT_EQ(p.decided_value(), proposal_of(rank[env.f()]))
          << to_string(backend);
    }
  }
}

TEST(MultiValuedBaTest, AnInitialFromOutsideThePrefixDrawsNoEcho) {
  // A Byzantine proposer ranked last pushes its own initial to everyone.
  // No correct process echoes it, so it never delivers anywhere.
  core::Env env = core::Env::make_relaxed(48, 21);
  MultiValuedBa::Config cfg = base_config(env);
  cfg.max_candidates = 8;
  const sim::ProcessId outsider =
      MultiValuedBa(cfg, Bytes{}).rank_order().back();
  auto log = std::make_shared<DisseminationLog>();
  auto run = run_silencing(
      env, /*seed=*/5, {outsider}, cfg, log, [&](sim::Simulation& sim) {
        const Bytes forged = proposal_of(outsider);
        for (sim::ProcessId to = 0; to < env.n(); ++to)
          if (to != outsider)
            sim.inject(outsider, to, "mvba/rbc/initial", forged,
                       value_words(forged.size()));
      });
  ASSERT_TRUE(run->all_correct_decided());
  EXPECT_EQ(log->echoed_sources.count(outsider), 0u);
  for (sim::ProcessId i = 0; i < env.n(); ++i) {
    if (i == outsider) continue;
    ASSERT_FALSE(run->at(i).decided_noop());
    EXPECT_NE(run->at(i).decided_proposer(), outsider);
    EXPECT_LE(run->at(i).rbc_delivered_count(), 4u);  // K = f + 1
  }
}

TEST(MultiValuedBaTest, SilentHeadOpensTheGateThroughKMinusF) {
  // The first-ranked proposer is silent, so candidate 0 can activate
  // only once K − f = 1 other prefix broadcast delivered. Only the K − 1
  // live prefix sources ever deliver, and a later prefix candidate wins.
  core::Env env = core::Env::make_relaxed(48, 26);
  MultiValuedBa::Config cfg = base_config(env);
  cfg.max_candidates = 8;
  cfg.skip_timeout = 30000;  // a committee short of W live members
  const std::vector<sim::ProcessId> rank =
      MultiValuedBa(cfg, Bytes{}).rank_order();
  const std::size_t k = env.f() + 1;  // below the cap of 8
  auto run = run_silencing(env, /*seed=*/11, {rank.front()}, cfg);
  ASSERT_TRUE(run->all_correct_decided());
  const std::set<sim::ProcessId> later(
      rank.begin() + 1, rank.begin() + static_cast<std::ptrdiff_t>(k));
  for (sim::ProcessId i = 0; i < env.n(); ++i) {
    if (i == rank.front()) continue;
    const MultiValuedBa& p = run->at(i);
    ASSERT_FALSE(p.decided_noop());
    EXPECT_EQ(later.count(p.decided_proposer()), 1u);
    EXPECT_GE(p.candidates_activated(), 1u);
    EXPECT_LE(p.rbc_delivered_count(), k - 1);
  }
}

TEST(MultiValuedBaTest, TheGateWaitsOutTheHeadCandidatesBroadcast) {
  // K - f = 1 of the K = 4 prefix broadcasts can deliver before rank 0's
  // own. Past that quorum the gate waits as long again, so every process
  // inputs 1 to candidate 0 and its BA adopts it: no candidate BA is
  // wasted on a lost race.
  core::Env env = core::Env::make_relaxed(48, 21);
  for (RbcBackend backend : {RbcBackend::kBracha, RbcBackend::kEc}) {
    for (const char* tag : {"slot0", "slot1", "slot2", "slot3"}) {
      MultiValuedBa::Config cfg = base_config(env, tag);
      cfg.max_candidates = 8;
      cfg.rbc = backend;
      auto run = run_silencing(env, /*seed=*/3, {}, cfg);
      ASSERT_TRUE(run->all_correct_decided()) << tag;
      for (sim::ProcessId i = 0; i < env.n(); ++i) {
        EXPECT_EQ(run->at(i).candidates_activated(), 1u)
            << to_string(backend) << " " << tag;
        EXPECT_EQ(run->at(i).decision(), 0) << to_string(backend) << " " << tag;
      }
    }
  }
}

TEST(MultiValuedBaTest, ArmedSkipHaltsCandidateBasOnceTheyDecide) {
  // With the skip fallback armed, a decided candidate BA halts at once: a
  // straggler skips the silent next round and gets a decision certificate
  // for its skip-req, so no grace round is needed.
  core::Env env = core::Env::make_relaxed(48, 22);
  MultiValuedBa::Config cfg = base_config(env);
  cfg.max_candidates = 8;
  cfg.skip_timeout = 30000;
  auto run = run_mv(env, /*seed=*/7, /*silent=*/2, cfg);
  ASSERT_TRUE(run->all_correct_decided());
  run->sim.run();  // drain the grace traffic
  for (sim::ProcessId i = 0; i < env.n(); ++i) {
    if (run->sim.is_corrupted(i)) continue;
    const MultiValuedBa& p = run->at(i);
    ASSERT_FALSE(p.decided_noop());
    const BaWhp* adopted = p.inner(static_cast<std::size_t>(p.decision()));
    ASSERT_NE(adopted, nullptr);
    EXPECT_STREQ(adopted->phase_name(), "halted");
    EXPECT_LE(adopted->current_round(), adopted->decided_round() + 1);
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
