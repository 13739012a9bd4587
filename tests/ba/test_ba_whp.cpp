#include "ba/ba_whp.h"

#include <gtest/gtest.h>

#include "ba_harness.h"
#include "coin/verify_queue.h"
#include "common/errors.h"
#include "common/rng.h"
#include "crypto/fast_vrf.h"

namespace coincidence::ba {
namespace {

using testing::BaRunResult;
using testing::BaRunSpec;
using testing::mixed_inputs;
using testing::run_ba;

struct Fixture : coin::Setup {
  explicit Fixture(std::size_t n, double eps = 0.25, double d = 0.02,
                   std::uint64_t key_seed = 11) {
    params = committee::Params::derive(n, eps, d, /*strict=*/false);
    registry = crypto::KeyRegistry::create_for(n, key_seed);
    vrf = std::make_shared<crypto::FastVrf>(registry);
    sampler = std::make_shared<committee::Sampler>(vrf, registry,
                                                   params.sample_prob());
    signer = std::make_shared<crypto::Signer>(registry);
    batcher = std::make_shared<coin::BatchVerifier>(
        coin::BatchVerifier::Config{vrf, sampler, signer});
  }

  BaWhp::Config config() const {
    BaWhp::Config cfg{*this};
    cfg.tag = "ba";
    cfg.max_rounds = 32;
    return cfg;
  }

  testing::BaFactory factory() const {
    return [this](sim::ProcessId, Value input) {
      return std::make_unique<BaWhp>(config(), input);
    };
  }
};

TEST(BaWhp, ValidityAllProposeSame) {
  Fixture fx(60);
  for (Value v : {kZero, kOne}) {
    BaRunSpec spec;
    spec.n = 60;
    spec.seed = 42 + v;
    spec.inputs = std::vector<Value>(60, v);
    BaRunResult r = run_ba(spec, fx.factory());
    ASSERT_TRUE(r.all_correct_decided()) << value_name(v);
    auto bit = r.agreement();
    ASSERT_TRUE(bit.has_value());
    EXPECT_EQ(*bit, static_cast<int>(v));
    // Validity path: unanimous estimate decides in the very first round.
    EXPECT_EQ(r.max_decided_round(), 0u);
  }
}

TEST(BaWhp, AgreementOnSplitInputs) {
  Fixture fx(60);
  int decided_runs = 0;
  const int kRuns = 12;
  for (int run = 0; run < kRuns; ++run) {
    BaRunSpec spec;
    spec.n = 60;
    spec.seed = 100 + run;
    spec.inputs = mixed_inputs(60, 30);
    BaRunResult r = run_ba(spec, fx.factory());
    if (!r.all_correct_decided()) continue;  // whp failure: counted below
    ++decided_runs;
    EXPECT_TRUE(r.agreement().has_value()) << "run " << run;
  }
  EXPECT_GE(decided_runs, kRuns * 3 / 4);
}

TEST(BaWhp, DecidesInFewRounds) {
  // Lemma 6.14: expected rounds <= 1/rho, a constant. With the relaxed
  // small-n parameters the empirical numbers stay small.
  Fixture fx(60);
  std::uint64_t worst = 0;
  int decided_runs = 0;
  for (int run = 0; run < 10; ++run) {
    BaRunSpec spec;
    spec.n = 60;
    spec.seed = 500 + run;
    spec.inputs = mixed_inputs(60, 20);
    BaRunResult r = run_ba(spec, fx.factory());
    if (!r.all_correct_decided()) continue;
    ++decided_runs;
    worst = std::max(worst, r.max_decided_round());
  }
  ASSERT_GT(decided_runs, 0);
  EXPECT_LE(worst, 8u);
}

TEST(BaWhp, ToleratesByzantineMix) {
  Fixture fx(60);
  BaRunSpec spec;
  spec.n = 60;
  spec.seed = 77;
  spec.f_budget = 4;
  spec.inputs = mixed_inputs(60, 25);
  spec.corruptions = {{1, sim::FaultPlan::silent()},
                      {12, sim::FaultPlan::junk()},
                      {33, sim::FaultPlan::crash()},
                      {54, sim::FaultPlan::selective({0, 2, 4, 6, 8})}};
  BaRunResult r = run_ba(spec, fx.factory());
  EXPECT_TRUE(r.all_correct_decided());
  EXPECT_TRUE(r.agreement().has_value());
}

TEST(BaWhp, ValidityHoldsUnderCrashes) {
  // All correct propose 1; crashed minority cannot flip the outcome.
  Fixture fx(60);
  BaRunSpec spec;
  spec.n = 60;
  spec.seed = 88;
  spec.f_budget = 4;
  spec.inputs = std::vector<Value>(60, kOne);
  spec.corruptions = {{0, sim::FaultPlan::crash()},
                      {1, sim::FaultPlan::crash()},
                      {2, sim::FaultPlan::crash()},
                      {3, sim::FaultPlan::crash()}};
  BaRunResult r = run_ba(spec, fx.factory());
  ASSERT_TRUE(r.all_correct_decided());
  EXPECT_EQ(*r.agreement(), 1);
}

TEST(BaWhp, SubQuadraticWordFootprint) {
  // Õ(n) claim, operationally: a decision costs far fewer correct-process
  // words than an O(n²) all-to-all protocol would pay per phase pair.
  Fixture fx(100);
  BaRunSpec spec;
  spec.n = 100;
  spec.seed = 5;
  spec.inputs = std::vector<Value>(100, kZero);
  BaRunResult r = run_ba(spec, fx.factory());
  ASSERT_TRUE(r.all_correct_decided());
  EXPECT_GT(r.correct_words, 0u);
  // The real scaling assertion lives in bench/word_scaling (the n log²n
  // vs n² crossover sits beyond laptop-simulable n). Here, a sanity
  // ceiling from the paper's own formula: O(n λ²) words per round, with
  // the constant dominated by the two approvers' ok proofs.
  double lambda = fx.params.lambda;
  double per_round_bound = 8.0 * 100.0 * lambda * lambda;
  EXPECT_LT(static_cast<double>(r.correct_words) /
                static_cast<double>(r.max_decided_round() + 2),
            per_round_bound);
}

TEST(BaWhp, EstimateAndRoundAccessors) {
  Fixture fx(60);
  auto p = fx.factory()(0, kOne);
  auto& ba = dynamic_cast<BaWhp&>(*p);
  EXPECT_EQ(ba.estimate(), kOne);
  EXPECT_EQ(ba.current_round(), 0u);
  EXPECT_FALSE(ba.decided());
  EXPECT_THROW(ba.decision(), PreconditionError);
  EXPECT_THROW(ba.decided_round(), PreconditionError);
}

// Deterministic committee-tail wedge (DESIGN.md §5h): with key seed 15
// and slot tag "slot7", round 0's a2 echo committee of the viable value
// draws fewer than W live members once processes 46 and 47 fall silent,
// so no ok quorum can ever form and the round wedges forever. This is
// the root cause of the stalled slots in BENCH_session.json (7/8 and
// 14/16 decided). The pair of tests pins the repro and the fix.
BaRunSpec wedge_spec(const Fixture& fx) {
  BaRunSpec spec;
  spec.n = fx.n();
  spec.f_budget = 2;
  spec.seed = 23;
  spec.inputs = std::vector<Value>(fx.n(), kZero);
  for (std::size_t i = 0; i < fx.n(); ++i)
    spec.inputs[i] = static_cast<Value>(i % 2);
  spec.corruptions = {{46, sim::FaultPlan::silent()},
                      {47, sim::FaultPlan::silent()}};
  return spec;
}

testing::BaFactory wedge_factory(const Fixture& fx,
                                 std::uint64_t skip_timeout) {
  return [&fx, skip_timeout](sim::ProcessId, Value input) {
    BaWhp::Config cfg = fx.config();
    cfg.tag = "slot7";
    cfg.skip_timeout = skip_timeout;
    return std::make_unique<BaWhp>(cfg, input);
  };
}

TEST(BaWhpSkip, CommitteeTailWedgesWithoutFallback) {
  Fixture fx(48, 0.25, 0.02, /*key_seed=*/15);
  BaRunResult r = run_ba(wedge_spec(fx), wedge_factory(fx, /*skip=*/0));
  // The run drains to quiescence with nobody decided — the liveness bug
  // this PR fixes. If this assertion ever flips, the repro drifted and
  // the skip tests below need a new seed.
  EXPECT_FALSE(r.all_correct_decided());
}

TEST(BaWhpSkip, SkipFallbackRescuesWedgedRound) {
  Fixture fx(48, 0.25, 0.02, /*key_seed=*/15);
  BaRunResult r = run_ba(wedge_spec(fx), wedge_factory(fx, /*skip=*/30000));
  ASSERT_TRUE(r.all_correct_decided());
  EXPECT_TRUE(r.agreement().has_value());
  // The wedge was in round 0; skipped rounds re-draw committees, so the
  // decision lands in round >= 1 — the honest rounds telemetry the
  // session bench now reports.
  EXPECT_GE(r.max_decided_round(), 1u);
}

/// A lone process's world: a settable clock, and a count of the
/// skip-reqs it broadcasts.
class LoneClock final : public sim::Context {
 public:
  explicit LoneClock(std::size_t n) : n_(n) {}
  sim::ProcessId self() const override { return 0; }
  std::size_t n() const override { return n_; }
  void send(sim::ProcessId, sim::Tag, SharedBytes, std::size_t) override {}
  void broadcast(sim::Tag tag, SharedBytes, std::size_t) override {
    if (tag.str().ends_with("/skip")) ++skip_reqs;
  }
  Rng& rng() override { return rng_; }
  std::uint64_t causal_depth() const override { return 0; }
  std::uint64_t now() const override { return now_; }

  std::uint64_t now_ = 0;
  std::size_t skip_reqs = 0;

 private:
  std::size_t n_;
  Rng rng_{1};
};

struct LoneRun {
  std::size_t skip_reqs = 0;
  std::size_t backlog = 0;
};

/// A lone BaWhp with skip_timeout 100, woken every 10 events for 2,000
/// events; with `junk`, process 5 sends it one "ba/x<i>" message (a tag
/// that names no round) per tick.
LoneRun lone_skip_run(bool junk) {
  Fixture fx(48);
  BaWhp::Config cfg = fx.config();
  cfg.skip_timeout = 100;
  BaWhp ba(cfg, kZero);
  LoneClock ctx(fx.n());
  ba.on_start(ctx);
  for (std::uint64_t t = 10; t <= 2000; t += 10) {
    ctx.now_ = t;
    if (junk) {
      sim::Message msg;
      msg.from = 5;
      msg.tag = sim::Tag("ba/x" + std::to_string(t));
      ba.on_message(ctx, msg);
    }
    ba.on_wakeup(ctx);
  }
  return {ctx.skip_reqs, ba.backlog_size()};
}

TEST(BaWhpSkip, TagsNamingNoRoundAreNeitherBackloggedNorProgress) {
  // A tag that names no round is no sub-instance's traffic: it must not
  // grow the backlog (replayed at every phase change) nor slide the skip
  // deadline, or one junk sender keeps a wedged round from ever asking
  // to skip.
  const LoneRun quiet = lone_skip_run(false);
  const LoneRun junk = lone_skip_run(true);
  EXPECT_GT(quiet.skip_reqs, 0u);
  EXPECT_EQ(junk.skip_reqs, quiet.skip_reqs);
  EXPECT_EQ(junk.backlog, quiet.backlog);
}

TEST(BaWhp, RejectsBadConstruction) {
  Fixture fx(60);
  BaWhp::Config cfg = fx.config();
  EXPECT_THROW(BaWhp(cfg, kBot), PreconditionError);  // ⊥ not a valid input
  cfg.signer = nullptr;
  EXPECT_THROW(BaWhp(cfg, kZero), PreconditionError);
}

}  // namespace
}  // namespace coincidence::ba

namespace coincidence::ba {
namespace {

TEST(BaWhpRobustness, ByzantineFutureRoundFloodIsDropped) {
  // A Byzantine process spams messages tagged with absurd future rounds;
  // the backlog must not grow without bound and the run must still decide.
  Fixture fx(60);
  sim::SimConfig cfg;
  cfg.n = 60;
  cfg.f = 1;
  cfg.seed = 123;
  sim::Simulation sim(cfg);
  auto factory = fx.factory();
  for (sim::ProcessId i = 0; i < 60; ++i)
    sim.add_process(factory(i, i < 30 ? kOne : kZero));
  sim.corrupt(59, sim::FaultPlan::silent());
  sim.start();
  for (int k = 0; k < 200; ++k) {
    sim.inject(59, static_cast<sim::ProcessId>(k % 59),
               "ba/" + std::to_string(1000000 + k) + "/a1/init",
               bytes_of("flood"), 1);
  }
  sim.run_until([&] {
    for (sim::ProcessId i = 0; i < 59; ++i)
      if (!dynamic_cast<BaProcess&>(sim.process(i)).decided()) return false;
    return true;
  });
  std::size_t decided = 0;
  for (sim::ProcessId i = 0; i < 59; ++i)
    decided += dynamic_cast<BaProcess&>(sim.process(i)).decided();
  EXPECT_GE(decided, 50u);  // whp tail allowance
}

}  // namespace
}  // namespace coincidence::ba
