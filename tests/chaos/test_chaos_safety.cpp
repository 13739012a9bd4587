// Randomized chaos suite: sweep (adversary x LinkPlan x FaultPlan) over
// seeded runs and assert that SAFETY never breaks. Termination is
// allowed to degrade — a protocol that assumes reliable links may stall
// under 100% loss — but no amount of substrate abuse may produce
// disagreement or an invalid decision. Every configuration is seeded,
// so a failure here is a replayable counterexample, not a flake.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/runner.h"
#include "run_outcome.h"

namespace coincidence::core {
namespace {

using sim::Counter;

using sim::LinkPlan;
using sim::NetworkProfile;

struct LinkCase {
  const char* name;
  LinkPlan plan;
};

std::vector<LinkCase> link_cases() {
  LinkPlan storm;  // everything at once
  storm.drop_p = 0.15;
  storm.dup_p = 0.3;
  storm.max_duplicates = 2;
  storm.replay_p = 0.2;
  return {
      {"lossless", LinkPlan::lossless()},
      {"drop10", LinkPlan::lossy(0.10)},
      {"drop30", LinkPlan::lossy(0.30)},
      {"dup50x2", LinkPlan::duplicating(0.5, 2)},
      {"replay30", LinkPlan::replaying(0.3)},
      {"storm", storm},
  };
}

struct FaultCase {
  const char* name;
  std::size_t crash = 0, silent = 0, junk = 0, crash_recover = 0;
};

std::vector<FaultCase> fault_cases() {
  return {
      {"clean"},
      {"crash", 1, 0, 0, 0},
      {"silent", 0, 1, 0, 0},
      {"junk", 0, 0, 1, 0},
      {"crash-recover", 0, 0, 0, 1},
  };
}

std::vector<AdversaryKind> adversary_cases() {
  return {AdversaryKind::kRandom, AdversaryKind::kFifo,
          AdversaryKind::kDelaySenders, AdversaryKind::kSplit,
          AdversaryKind::kHeavyTail};
}

/// Runs one config and asserts the safety invariants:
///  - agreement: no two correct processes decided differently;
///  - validity: with unanimous input v, any decision equals v.
/// Returns whether all correct processes decided (liveness, reported
/// but never asserted).
bool check_safety_report(const RunReport& report, int unanimous_input,
                         const std::string& label) {
  EXPECT_TRUE(report.agreement) << label;
  if (report.decision)
    EXPECT_EQ(*report.decision, unanimous_input) << label;
  return report.all_correct_decided;
}

bool check_safety(const RunOptions& options, int unanimous_input,
                  const std::string& label) {
  return check_safety_report(run_agreement(options), unanimous_input, label);
}

std::string case_label(Protocol proto, AdversaryKind adv,
                       const char* link_name, const char* fault_name,
                       std::uint64_t seed) {
  return std::string(protocol_name(proto)) + "/" + adversary_name(adv) +
         "/" + link_name + "/" + fault_name + "/seed=" + std::to_string(seed);
}

// 2 protocols x 5 adversaries x 6 link plans x 5 fault mixes = 300
// seeded configurations on the cheap baselines. The grid is the point:
// safety must hold on every cell, including the ones where nothing can
// terminate.
TEST(ChaosSafety, BaselineProtocolsSweepNeverDisagree) {
  // The 300 cells are independent seeded runs: collect the reports on
  // the parallel driver, then assert serially on this thread (GoogleTest
  // expectations are not thread-safe). Reports come back in input order,
  // so labels and tallies line up with the serial sweep exactly.
  std::vector<RunOptions> grid;
  std::vector<std::string> labels;
  std::vector<int> inputs;
  for (Protocol proto : {Protocol::kBracha, Protocol::kBenOr}) {
    for (AdversaryKind adv : adversary_cases()) {
      for (const LinkCase& link : link_cases()) {
        for (const FaultCase& fault : fault_cases()) {
          RunOptions options;
          options.protocol = proto;
          options.n = proto == Protocol::kBenOr ? 6 : 4;
          const std::uint64_t seed =
              0xc0ffee + static_cast<std::uint64_t>(grid.size());
          options.seed = seed;
          options.adversary = adv;
          options.network = NetworkProfile::uniform(link.plan);
          options.crash = fault.crash;
          options.silent = fault.silent;
          options.junk = fault.junk;
          options.crash_recover = fault.crash_recover;
          options.recover_after = 200;
          options.max_rounds = 40;
          const int input = static_cast<int>(grid.size() % 2);
          options.inputs.assign(options.n,
                                input ? ba::kOne : ba::kZero);
          grid.push_back(options);
          labels.push_back(
              case_label(proto, adv, link.name, fault.name, seed));
          inputs.push_back(input);
        }
      }
    }
  }
  ThreadPool pool;
  std::vector<RunReport> reports = run_agreements_parallel(pool, grid);
  int live = 0;
  const int total = static_cast<int>(reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i)
    if (check_safety_report(reports[i], inputs[i], labels[i])) ++live;
  ASSERT_EQ(total, 300);
  // Liveness degrades under chaos but must not vanish: the lossless
  // column alone is 50 cells and should essentially always decide.
  EXPECT_GE(live, total / 3) << live << "/" << total << " configs decided";
}

// The headline protocol on moderately hostile networks: ba-whp runs are
// ~100x the baselines' cost, so this samples the grid instead of
// sweeping it.
TEST(ChaosSafety, BaWhpSampledChaosNeverDisagrees) {
  struct Sample {
    AdversaryKind adv;
    LinkPlan plan;
    FaultCase fault;
  };
  LinkPlan storm;
  storm.drop_p = 0.05;
  storm.dup_p = 0.2;
  storm.replay_p = 0.1;
  const std::vector<Sample> samples = {
      {AdversaryKind::kRandom, LinkPlan::lossy(0.10), {"clean"}},
      {AdversaryKind::kFifo, LinkPlan::duplicating(0.5, 2), {"clean"}},
      {AdversaryKind::kSplit, LinkPlan::replaying(0.3), {"clean"}},
      {AdversaryKind::kHeavyTail, storm, {"clean"}},
      {AdversaryKind::kRandom, LinkPlan::duplicating(0.3),
       {"silent", 0, 1, 0, 0}},
      {AdversaryKind::kRandom, LinkPlan::lossy(0.05),
       {"crash-recover", 0, 0, 0, 1}},
  };
  int idx = 0;
  for (const Sample& s : samples) {
    RunOptions options;
    options.protocol = Protocol::kBaWhp;
    options.n = 32;
    options.seed = 7000 + static_cast<std::uint64_t>(idx);
    options.adversary = s.adv;
    options.network = NetworkProfile::uniform(s.plan);
    options.silent = s.fault.silent;
    options.crash_recover = s.fault.crash_recover;
    options.recover_after = 2000;
    const int input = idx % 2;
    options.inputs.assign(options.n, input ? ba::kOne : ba::kZero);
    check_safety(options, input,
                 case_label(Protocol::kBaWhp, s.adv, "sampled",
                            s.fault.name, options.seed));
    ++idx;
  }
}

// Memoized/batched signature verification vs direct verification across
// a chaos sweep: for every sampled (adversary x link x fault) cell the
// run's decision, rounds, words, messages and duration must match the
// outcome captured with per-message inline verification (commit
// f100337). Chaos makes this a strong oracle — drops, duplicates,
// replays and crash-recovery all reshuffle WHICH ok messages each
// process sees, and any divergence in verdicts or flush timing would
// desynchronize the seeded substrate immediately.
TEST(ChaosSafety, BaWhpDeferredSigVerdictsMatchInlineAcrossChaosSweep) {
  struct Sample {
    AdversaryKind adv;
    LinkPlan plan;
    FaultCase fault;
    const char* outcome;
  };
  LinkPlan storm;
  storm.drop_p = 0.05;
  storm.dup_p = 0.2;
  storm.replay_p = 0.1;
  const std::vector<Sample> samples = {
      {AdversaryKind::kRandom, LinkPlan::lossless(), {"clean"},
       "decided=1 decision=0 round=0 words=91360 messages=8160 duration=13 "
       "tags=echo:5664;first:2784;init:5312;ok:74624;second:2976;"},
      {AdversaryKind::kFifo, LinkPlan::duplicating(0.5, 2), {"clean"},
       "decided=1 decision=1 round=0 words=92192 messages=8032 duration=9 "
       "tags=echo:5472;first:2688;init:5504;ok:76032;second:2496;"},
      {AdversaryKind::kSplit, LinkPlan::replaying(0.3), {"clean"},
       "decided=1 decision=0 round=0 words=89248 messages=7872 duration=12 "
       "tags=echo:5184;first:2784;init:5184;ok:73216;second:2880;"},
      {AdversaryKind::kHeavyTail, storm, {"clean"},
       "decided=1 decision=1 round=0 words=94912 messages=7968 duration=17 "
       "tags=echo:5664;first:2688;init:4928;ok:78848;second:2784;"},
      {AdversaryKind::kRandom, LinkPlan::lossy(0.10), {"junk", 0, 0, 1, 0},
       "decided=0 decision=- round=0 words=86592 messages=8000 duration=20 "
       "tags=echo:6528;first:2592;init:4480;ok:70400;second:2592;"},
      {AdversaryKind::kDelaySenders, LinkPlan::duplicating(0.3),
       {"silent", 0, 1, 0, 0},
       "decided=1 decision=1 round=0 words=92736 messages=7712 duration=12 "
       "tags=echo:5088;first:2496;init:5120;ok:77440;second:2592;"},
      {AdversaryKind::kRandom, LinkPlan::lossy(0.05),
       {"crash-recover", 0, 0, 0, 1},
       "decided=0 decision=- round=0 words=43616 messages=3488 duration=8 "
       "tags=echo:2496;first:2016;init:1728;ok:36608;second:768;"},
  };
  std::vector<RunOptions> grid;
  std::vector<std::string> labels;
  int idx = 0;
  for (const Sample& s : samples) {
    RunOptions options;
    options.protocol = Protocol::kBaWhp;
    options.n = 32;
    options.seed = 9100 + static_cast<std::uint64_t>(idx);
    options.adversary = s.adv;
    options.network = NetworkProfile::uniform(s.plan);
    options.silent = s.fault.silent;
    options.junk = s.fault.junk;
    options.crash_recover = s.fault.crash_recover;
    options.recover_after = 2000;
    options.inputs.assign(options.n, idx % 2 ? ba::kOne : ba::kZero);
    grid.push_back(options);
    labels.push_back(case_label(Protocol::kBaWhp, s.adv, "equiv",
                                s.fault.name, options.seed));
    ++idx;
  }
  ThreadPool pool;
  std::vector<RunReport> reports = run_agreements_parallel(pool, grid);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const RunReport& r = reports[i];
    SCOPED_TRACE(labels[i]);
    EXPECT_EQ(run_outcome(r), samples[i].outcome);
    // The run exercised the signature batch plane...
    EXPECT_GT(r.counters[Counter::kSigVerifySigs], 0u);
    // ...and conservation holds under chaos too.
    EXPECT_EQ(r.verify_enqueued, r.verify_batch_flushed + r.verify_discarded);
  }
}

// Acceptance bar from the issue: ba-whp wrapped in the reliable channel
// must still DECIDE (not merely stay safe) at 20% drop with duplication
// enabled, with the repair overhead reported out of band.
TEST(ChaosSafety, BaWhpOverReliableChannelDecidesUnder20PctDrop) {
  LinkPlan plan;
  plan.drop_p = 0.20;
  plan.dup_p = 0.20;
  plan.max_duplicates = 2;
  RunOptions options;
  options.protocol = Protocol::kBaWhp;
  options.n = 32;
  options.seed = 424242;
  options.network = NetworkProfile::uniform(plan);
  options.reliable_channel = true;
  options.inputs.assign(options.n, ba::kOne);
  RunReport report = run_agreement(options);
  EXPECT_TRUE(report.all_correct_decided);
  EXPECT_TRUE(report.agreement);
  ASSERT_TRUE(report.decision.has_value());
  EXPECT_EQ(*report.decision, 1);
  EXPECT_GT(report.counters[Counter::kLinkDrops], 0u);
  EXPECT_GT(report.counters[Counter::kLinkDuplicates], 0u);
  EXPECT_GT(report.counters[Counter::kRetransmits], 0u);
  EXPECT_GT(report.counters[Counter::kRetransmitWords], 0u);
  // Repair overhead must be outside the paper's word complexity.
  EXPECT_GT(report.correct_words, 0u);
  // ISSUE 4 satellite: frames the channels abandoned mid-run must be
  // *visible* losses, never the pre-fix silent erase. At n=32 under 20%
  // loss they are plentiful — the RTO clock counts global delivery
  // events, so a congested queue exhausts a frame's retry budget even
  // when the original copy is merely slow, not lost. Exactly-once
  // delivery absorbed every abandoned frame (the decision above), and
  // the counters prove the losses were accounted.
  EXPECT_GT(report.counters[Counter::kDeadLetters], 0u);
  EXPECT_GT(report.counters[Counter::kDeadLetterWords], 0u);
  // Each abandoned frame was charged to correct_words once (plus its
  // retries to retransmit_words), so the loss accounting is bounded by
  // what actually went on the wire.
  EXPECT_LE(report.counters[Counter::kDeadLetterWords],
            report.correct_words + report.counters[Counter::kRetransmitWords]);
}

// Duplicating/replaying links redeliver coin shares verbatim; the
// verified-share memo must answer those copies from cache instead of
// paying a second verification (the satellite invariant of the batch-
// verification PR). Memo hits show up in the run report.
TEST(ChaosSafety, DuplicatedSharesHitTheVerifyMemo) {
  LinkPlan noisy;
  noisy.dup_p = 0.5;
  noisy.max_duplicates = 2;
  noisy.replay_p = 0.3;
  RunOptions options;
  options.protocol = Protocol::kMmrWhpCoin;
  options.n = 40;
  options.seed = 31;
  options.adversary = AdversaryKind::kRandom;
  options.network = NetworkProfile::uniform(noisy);
  options.inputs.assign(options.n, ba::kZero);
  options.inputs[0] = ba::kOne;
  RunReport report = run_agreement(options);
  EXPECT_GT(report.counters[Counter::kVerifyShares], 0u);
  // With a 50% duplication + 30% replay profile, re-delivered tuples are
  // plentiful — the memo must catch a healthy share of them.
  EXPECT_GT(report.counters[Counter::kVerifyMemoHits], 0u);
}

// Identical seeds must reproduce identical runs even with every chaos
// feature enabled at once — link faults burn a dedicated Rng stream, so
// determinism survives the whole stack.
TEST(ChaosSafety, ChaoticRunsAreSeedDeterministic) {
  auto run = [] {
    LinkPlan storm;
    storm.drop_p = 0.15;
    storm.dup_p = 0.3;
    storm.max_duplicates = 2;
    storm.replay_p = 0.2;
    RunOptions options;
    options.protocol = Protocol::kBracha;
    options.n = 4;
    options.seed = 777;
    options.adversary = AdversaryKind::kHeavyTail;
    options.network = NetworkProfile::uniform(storm);
    options.crash_recover = 1;
    options.recover_after = 150;
    options.reliable_channel = true;
    options.inputs.assign(4, ba::kOne);
    return run_agreement(options);
  };
  RunReport a = run();
  RunReport b = run();
  EXPECT_EQ(a.all_correct_decided, b.all_correct_decided);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.correct_words, b.correct_words);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.words_by_tag, b.words_by_tag);
}

}  // namespace
}  // namespace coincidence::core
