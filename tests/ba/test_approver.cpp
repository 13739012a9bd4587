#include "ba/approver.h"

#include <gtest/gtest.h>

#include "coin/verify_queue.h"
#include "common/errors.h"
#include "common/ser.h"
#include "crypto/fast_vrf.h"
#include "sim/simulation.h"

namespace coincidence::ba {
namespace {

struct Fixture : coin::Setup {
  explicit Fixture(std::size_t n, double eps = 0.25, double d = 0.02,
                   std::uint64_t key_seed = 7) {
    params = committee::Params::derive(n, eps, d, /*strict=*/false);
    registry = crypto::KeyRegistry::create_for(n, key_seed);
    vrf = std::make_shared<crypto::FastVrf>(registry);
    sampler = std::make_shared<committee::Sampler>(vrf, registry,
                                                   params.sample_prob());
    signer = std::make_shared<crypto::Signer>(registry);
    batcher = std::make_shared<coin::BatchVerifier>(
        coin::BatchVerifier::Config{vrf, sampler, signer});
  }

  Approver::Config config(const std::string& tag) const {
    Approver::Config cfg{*this};
    cfg.tag = tag;
    return cfg;
  }
};

struct ApproverRun {
  std::vector<std::optional<std::set<Value>>> outputs;
  bool all_done(const std::vector<bool>& corrupted) const {
    for (std::size_t i = 0; i < outputs.size(); ++i)
      if (!corrupted[i] && !outputs[i]) return false;
    return true;
  }
};

ApproverRun run_approver(const Fixture& fx, const std::vector<Value>& inputs,
                         std::uint64_t seed,
                         std::vector<std::pair<sim::ProcessId, sim::FaultPlan>>
                             corruptions = {},
                         std::size_t f_budget = 0) {
  sim::SimConfig cfg;
  cfg.n = inputs.size();
  cfg.f = f_budget;
  cfg.seed = seed;
  sim::Simulation sim(cfg);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    sim.add_process(
        std::make_unique<ApproverHost>(fx.config("apv"), inputs[i]));
  for (auto& [id, plan] : corruptions) sim.corrupt(id, plan);
  sim.start();
  sim.run();

  ApproverRun out;
  out.outputs.resize(inputs.size());
  for (sim::ProcessId i = 0; i < inputs.size(); ++i) {
    auto& host = dynamic_cast<ApproverHost&>(sim.process(i));
    if (host.approver().done()) out.outputs[i] = host.approver().output();
  }
  return out;
}

TEST(Approver, ValidityUnanimousInput) {
  // Lemma 6.2: all invoke approve(v) => only possible return is {v}.
  Fixture fx(60);
  for (Value v : {kZero, kOne, kBot}) {
    ApproverRun r = run_approver(fx, std::vector<Value>(60, v), 17 + v);
    std::vector<bool> corrupted(60, false);
    ASSERT_TRUE(r.all_done(corrupted)) << value_name(v);
    for (const auto& out : r.outputs) {
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, std::set<Value>{v}) << value_name(v);
    }
  }
}

TEST(Approver, GradedAgreementNoConflictingSingletons) {
  // Lemma 6.3 across mixed-input runs: if any process returns {v} and
  // another {w} as singletons, v == w.
  Fixture fx(60);
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    std::vector<Value> inputs(60, kZero);
    for (std::size_t i = 0; i < 30; ++i) inputs[i] = kOne;
    ApproverRun r = run_approver(fx, inputs, 100 + seed);
    std::optional<Value> singleton;
    for (const auto& out : r.outputs) {
      if (!out || out->size() != 1) continue;
      Value v = *out->begin();
      if (!singleton) singleton = v;
      EXPECT_EQ(*singleton, v) << "seed " << seed;
    }
  }
}

TEST(Approver, TerminationReturnsNonEmpty) {
  // Lemma 6.4: all invoke => everyone returns a non-empty set (whp).
  Fixture fx(60);
  int completed = 0;
  const int kRuns = 25;
  for (std::uint64_t seed = 0; seed < kRuns; ++seed) {
    std::vector<Value> inputs(60, seed % 2 ? kOne : kZero);
    for (std::size_t i = 0; i < 20; ++i) inputs[i] = kBot;
    ApproverRun r = run_approver(fx, inputs, 300 + seed);
    std::vector<bool> corrupted(60, false);
    if (!r.all_done(corrupted)) continue;
    ++completed;
    for (const auto& out : r.outputs) EXPECT_FALSE(out->empty());
  }
  EXPECT_GE(completed, kRuns * 8 / 10);  // whp at this (relaxed) n
}

TEST(Approver, MixedInputsReturnSubsetOfInputs) {
  Fixture fx(60);
  std::vector<Value> inputs(60, kZero);
  for (std::size_t i = 0; i < 30; ++i) inputs[i] = kBot;
  ApproverRun r = run_approver(fx, inputs, 55);
  for (const auto& out : r.outputs) {
    if (!out) continue;
    for (Value v : *out) EXPECT_TRUE(v == kZero || v == kBot);
  }
}

TEST(Approver, ToleratesSilentCommitteeMembers) {
  Fixture fx(60);
  std::vector<std::pair<sim::ProcessId, sim::FaultPlan>> corruptions;
  for (sim::ProcessId i = 0; i < 4; ++i)
    corruptions.push_back({i, sim::FaultPlan::silent()});
  ApproverRun r = run_approver(fx, std::vector<Value>(60, kOne), 77,
                               corruptions, /*f_budget=*/4);
  std::vector<bool> corrupted(60, false);
  for (int i = 0; i < 4; ++i) corrupted[i] = true;
  EXPECT_TRUE(r.all_done(corrupted));
  for (std::size_t i = 4; i < 60; ++i)
    EXPECT_EQ(*r.outputs[i], std::set<Value>{kOne});
}

TEST(Approver, ToleratesJunkSenders) {
  Fixture fx(60);
  ApproverRun r = run_approver(fx, std::vector<Value>(60, kZero), 78,
                               {{10, sim::FaultPlan::junk()},
                                {20, sim::FaultPlan::junk()}},
                               /*f_budget=*/2);
  std::vector<bool> corrupted(60, false);
  corrupted[10] = corrupted[20] = true;
  EXPECT_TRUE(r.all_done(corrupted));
  for (std::size_t i = 0; i < 60; ++i) {
    if (corrupted[i] || !r.outputs[i]) continue;
    EXPECT_EQ(*r.outputs[i], std::set<Value>{kZero});
  }
}

TEST(Approver, ForgedOkWithoutValidProofIsIgnored) {
  Fixture fx(40);
  sim::SimConfig cfg;
  cfg.n = 40;
  cfg.f = 1;
  cfg.seed = 5;
  sim::Simulation sim(cfg);
  for (std::size_t i = 0; i < 40; ++i)
    sim.add_process(
        std::make_unique<ApproverHost>(fx.config("apv"), kZero));
  sim.corrupt(39, sim::FaultPlan::silent());
  sim.start();

  // Craft an ok for value 1 (which nobody initialized) with W bogus
  // "signed echoes": must be rejected by every correct process.
  auto election = fx.sampler->sample(39, "apv/ok");
  Writer w;
  w.u8(kOne).blob(election.proof);
  w.u32(static_cast<std::uint32_t>(fx.params.W));
  for (std::uint32_t i = 0; i < fx.params.W; ++i)
    w.u32(i).blob(Bytes(32, 0xaa)).blob(bytes_of("bogus"));
  for (sim::ProcessId to = 0; to < 39; ++to)
    sim.inject(39, to, "apv/ok", w.bytes(), 2 + 2 * fx.params.W);
  sim.run();

  for (sim::ProcessId i = 0; i < 39; ++i) {
    auto& host = dynamic_cast<ApproverHost&>(sim.process(i));
    if (host.approver().done())
      EXPECT_EQ(host.approver().output(), std::set<Value>{kZero}) << i;
  }
}

TEST(Approver, OkCommitteeMembersSendAtMostOneOk) {
  // Process replaceability (§6.1): one broadcast per committee role.
  Fixture fx(60);
  sim::SimConfig cfg;
  cfg.n = 60;
  cfg.seed = 21;
  sim::Simulation sim(cfg);
  std::vector<Value> inputs(60, kZero);
  for (std::size_t i = 0; i < 30; ++i) inputs[i] = kOne;  // two live values
  for (std::size_t i = 0; i < 60; ++i)
    sim.add_process(
        std::make_unique<ApproverHost>(fx.config("apv"), inputs[i]));
  sim.start();
  sim.run();
  // sent_ok is a bool per process, so "at most one ok" holds by
  // construction; verify the committee actually had senders and that
  // non-members never sent.
  std::size_t senders = 0;
  for (sim::ProcessId i = 0; i < 60; ++i) {
    auto& a = dynamic_cast<ApproverHost&>(sim.process(i)).approver();
    if (a.sent_ok()) {
      ++senders;
      EXPECT_TRUE(a.in_ok_committee()) << i;
    }
  }
  EXPECT_GT(senders, 0u);
}

/// Hands every delivered message to the wrapped process twice, back to
/// back — the harshest duplicate-delivery pattern a lossy link can
/// produce. An idempotent protocol sends nothing extra, so the run's
/// trace (and therefore its word count) is unchanged.
class DeliverTwice final : public sim::Process {
 public:
  explicit DeliverTwice(std::unique_ptr<sim::Process> inner)
      : inner_(std::move(inner)) {}
  void on_start(sim::Context& ctx) override { inner_->on_start(ctx); }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    inner_->on_message(ctx, msg);
    inner_->on_message(ctx, msg);
  }
  sim::Process& inner() { return *inner_; }

 private:
  std::unique_ptr<sim::Process> inner_;
};

TEST(Approver, DuplicateDeliveryIsIdempotent) {
  Fixture fx(60);
  std::vector<Value> inputs(60, kZero);
  for (std::size_t i = 0; i < 30; ++i) inputs[i] = kOne;

  auto run = [&](bool doubled) {
    sim::SimConfig cfg;
    cfg.n = 60;
    cfg.seed = 97;
    auto sim = std::make_unique<sim::Simulation>(cfg);
    for (std::size_t i = 0; i < 60; ++i) {
      auto host = std::make_unique<ApproverHost>(fx.config("apv"), inputs[i]);
      if (doubled)
        sim->add_process(std::make_unique<DeliverTwice>(std::move(host)));
      else
        sim->add_process(std::move(host));
    }
    sim->start();
    sim->run();
    return sim;
  };
  auto once = run(false);
  auto twice = run(true);

  for (sim::ProcessId i = 0; i < 60; ++i) {
    auto& a = dynamic_cast<ApproverHost&>(once->process(i)).approver();
    auto& b = dynamic_cast<ApproverHost&>(
                  dynamic_cast<DeliverTwice&>(twice->process(i)).inner())
                  .approver();
    ASSERT_EQ(a.done(), b.done()) << i;
    if (a.done()) EXPECT_EQ(a.output(), b.output()) << i;
  }
  // Identical sends: duplicates triggered no re-broadcasts, so the word
  // complexity is untouched.
  EXPECT_EQ(once->metrics().correct_words(), twice->metrics().correct_words());
  EXPECT_EQ(once->metrics().messages_sent(), twice->metrics().messages_sent());
  EXPECT_EQ(once->metrics().words_by_tag(), twice->metrics().words_by_tag());
}

TEST(Approver, RejectsBadConstruction) {
  Fixture fx(40);
  EXPECT_THROW(Approver(fx.config("x"), 7), PreconditionError);  // bad value
  Approver::Config cfg = fx.config("x");
  cfg.signer = nullptr;
  EXPECT_THROW(Approver(cfg, kZero), PreconditionError);
}

TEST(Approver, OutputBeforeDoneThrows) {
  Fixture fx(40);
  Approver a(fx.config("x"), kZero);
  EXPECT_THROW(a.output(), PreconditionError);
}

}  // namespace
}  // namespace coincidence::ba
