// Chaos orchestration plane (sim/chaos.h) unit tests: the schedule DSL
// round-trips, the event cursor fires in deterministic order, the
// simulation executes partitions / churn waves / storms exactly as the
// spec promises, and the InvariantChecker flags every catalog entry.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/errors.h"
#include "sim/chaos.h"
#include "sim/invariants.h"
#include "sim/simulation.h"

namespace coincidence::sim {
namespace {

// ------------------------------------------------------------ spec DSL --

TEST(ChaosDsl, SpecRoundTripsExactly) {
  ChaosSchedule s;
  s.phases.push_back(ChaosPhase::partition(64, 192, 2));
  s.phases.push_back(ChaosPhase::churn(0, 512, 1, 64, 192));
  s.phases.push_back(ChaosPhase::storm(64, 256, 0.3, 2));
  const std::string spec =
      "partition@64+192:boundary=2,mode=hold;"
      "churn@0+512:victims=1,down=64,every=192;"
      "storm@64+256:p=0.3,copies=2";
  EXPECT_EQ(s.spec(), spec);

  ChaosSchedule back = ChaosSchedule::parse(s.spec());
  ASSERT_EQ(back.phases.size(), 3u);
  EXPECT_EQ(back.spec(), spec);
  EXPECT_EQ(back.phases[0].kind, ChaosPhase::Kind::kPartition);
  EXPECT_EQ(back.phases[0].boundary, 2u);
  EXPECT_EQ(back.phases[0].partition_mode, ChaosPhase::PartitionMode::kHold);
  EXPECT_EQ(back.phases[0].end(), 256u);
  EXPECT_EQ(back.phases[1].churn_victims, 1u);
  EXPECT_EQ(back.phases[1].churn_down, 64u);
  EXPECT_EQ(back.phases[1].churn_every, 192u);
  EXPECT_DOUBLE_EQ(back.phases[2].storm_p, 0.3);
  EXPECT_EQ(back.phases[2].storm_copies, 2u);
}

TEST(ChaosDsl, ParseAcceptsParamSubsetsWithDefaults) {
  ChaosSchedule s = ChaosSchedule::parse("churn@5+10");
  ASSERT_EQ(s.phases.size(), 1u);
  EXPECT_EQ(s.phases[0].kind, ChaosPhase::Kind::kChurn);
  EXPECT_EQ(s.phases[0].start, 5u);
  EXPECT_EQ(s.phases[0].duration, 10u);
  EXPECT_EQ(s.phases[0].churn_victims, 0u);  // default: no-op wave

  s = ChaosSchedule::parse("partition@0+8:mode=drop");
  EXPECT_EQ(s.phases[0].partition_mode, ChaosPhase::PartitionMode::kDrop);
  EXPECT_EQ(s.phases[0].boundary, 0u);
}

TEST(ChaosDsl, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(ChaosSchedule::parse("bogus@0+1"), ConfigError);
  EXPECT_THROW(ChaosSchedule::parse("partition0+1"), ConfigError);
  EXPECT_THROW(ChaosSchedule::parse("partition@0:boundary=2"), ConfigError);
  EXPECT_THROW(ChaosSchedule::parse("partition@x+1"), ConfigError);
  EXPECT_THROW(ChaosSchedule::parse("partition@0+1:mode=maybe"), ConfigError);
  EXPECT_THROW(ChaosSchedule::parse("storm@0+1:p=1.5"), ConfigError);
  EXPECT_THROW(ChaosSchedule::parse("storm@0+1:p=abc"), ConfigError);
  EXPECT_THROW(ChaosSchedule::parse("churn@0+1:victims=x"), ConfigError);
  EXPECT_THROW(ChaosSchedule::parse("storm@0+1:q=1"), ConfigError);
  EXPECT_THROW(ChaosSchedule::parse("storm@0+1:copies"), ConfigError);
}

TEST(ChaosDsl, PresetsScaleAndRoundTrip) {
  for (const std::string& name : ChaosSchedule::preset_names()) {
    ChaosSchedule s = ChaosSchedule::preset(name, 32);
    // "adaptive" is deliberately empty (the adversary is the hostility).
    if (name == "adaptive") {
      EXPECT_TRUE(s.empty()) << name;
    } else {
      EXPECT_FALSE(s.empty()) << name;
    }
    ChaosSchedule back = ChaosSchedule::parse(s.spec());
    EXPECT_EQ(back.spec(), s.spec()) << name;
  }
  EXPECT_THROW(ChaosSchedule::preset("no-such-preset", 32), ConfigError);
  EXPECT_THROW(ChaosSchedule::preset("churn", 0), PreconditionError);

  EXPECT_EQ(ChaosSchedule::preset("churn", 8).max_churn_victims(), 1u);
  EXPECT_EQ(ChaosSchedule::preset("combined", 8).max_churn_victims(), 1u);
  EXPECT_EQ(ChaosSchedule::preset("storm", 8).max_churn_victims(), 0u);
  // copies=0 is clamped to 1: "at most zero extra copies" is a typo, not
  // a schedule.
  EXPECT_EQ(ChaosPhase::storm(0, 1, 0.5, 0).storm_copies, 1u);
}

// ---------------------------------------------------------- ChaosState --

TEST(ChaosState, EventsFireInDeterministicOrder) {
  // Waves at phase start then every `every` while the phase lasts:
  // 10, 40, 70, 100 (end() = 110 is exclusive).
  ChaosSchedule s = ChaosSchedule::parse("churn@10+100:victims=2,down=5,every=30");
  ChaosState state(s);
  EXPECT_EQ(state.next_event_at(), std::optional<std::uint64_t>(10));
  EXPECT_FALSE(state.pop_due(9).has_value());

  std::vector<ChaosEvent> fired;
  while (auto ev = state.pop_due(200)) fired.push_back(*ev);
  ASSERT_EQ(fired.size(), 6u);
  EXPECT_EQ(fired[0].kind, ChaosEvent::Kind::kPhaseBegin);
  EXPECT_EQ(fired[0].at, 10u);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)].kind,
              ChaosEvent::Kind::kChurnWave);
    EXPECT_EQ(fired[static_cast<std::size_t>(i)].at,
              10u + 30u * static_cast<std::uint64_t>(i - 1));
  }
  EXPECT_EQ(fired[5].kind, ChaosEvent::Kind::kPhaseEnd);
  EXPECT_EQ(fired[5].at, 110u);
  EXPECT_FALSE(state.next_event_at().has_value());
}

TEST(ChaosState, PartitionActivationWindowGatesBlocked) {
  ChaosSchedule s = ChaosSchedule::parse("partition@5+10:boundary=2,mode=hold");
  ChaosState state(s);
  EXPECT_FALSE(state.any_active_partition());
  EXPECT_FALSE(state.blocked(0, 3, nullptr, nullptr));

  ASSERT_TRUE(state.pop_due(5).has_value());  // begin
  EXPECT_TRUE(state.any_active_partition());
  ChaosPhase::PartitionMode mode = ChaosPhase::PartitionMode::kDrop;
  std::size_t phase = 99;
  EXPECT_TRUE(state.blocked(0, 3, &mode, &phase));
  EXPECT_EQ(mode, ChaosPhase::PartitionMode::kHold);
  EXPECT_EQ(phase, 0u);
  EXPECT_TRUE(state.blocked(3, 0, nullptr, nullptr));  // symmetric
  EXPECT_FALSE(state.blocked(0, 1, nullptr, nullptr));  // same group
  EXPECT_FALSE(state.blocked(2, 3, nullptr, nullptr));
  EXPECT_EQ(state.current_phase(), 0u);

  ASSERT_TRUE(state.pop_due(15).has_value());  // end: heals
  EXPECT_FALSE(state.any_active_partition());
  EXPECT_FALSE(state.blocked(0, 3, nullptr, nullptr));
}

// ------------------------------------------------- simulation execution --

/// Everyone broadcasts one "v" message at start and counts receipts.
class Counter final : public Process {
 public:
  void on_start(Context& ctx) override { ctx.broadcast("v", bytes_of("v"), 1); }
  void on_message(Context&, const Message& msg) override {
    if (msg.tag == "v") ++received;
  }
  int received = 0;
};

std::unique_ptr<Simulation> make_counters(std::size_t n, std::size_t f,
                                          const std::string& chaos_spec,
                                          std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.seed = seed;
  cfg.chaos = ChaosSchedule::parse(chaos_spec);
  auto sim = std::make_unique<Simulation>(cfg);
  for (std::size_t i = 0; i < n; ++i)
    sim->add_process(std::make_unique<Counter>());
  return sim;
}

int received_of(Simulation& sim, ProcessId id) {
  return dynamic_cast<Counter&>(sim.process(id)).received;
}

TEST(ChaosSim, PartitionHoldBuffersUntilIdleAdvanceHeals) {
  // Partition {0,1} | {2,3} from tick 0, healing at tick 1000 — far past
  // natural quiescence (12 broadcasts), so only the idle advance can
  // reach the heal event. The 8 cross-partition messages must be held,
  // then released and delivered: chaos delays, it never loses.
  auto sim_ptr = make_counters(4, 0, "partition@0+1000:boundary=2,mode=hold");
  Simulation& sim = *sim_ptr;
  sim.start();
  sim.run();
  // Broadcast includes self-delivery: 4 receipts each once healed.
  for (ProcessId i = 0; i < 4; ++i) EXPECT_EQ(received_of(sim, i), 4) << i;
  EXPECT_EQ(sim.metrics().counters()[sim::Counter::kPartitionHeld], 8u);
  EXPECT_EQ(sim.metrics().counters()[sim::Counter::kPartitionReleased], 8u);
  EXPECT_EQ(sim.metrics().counters()[sim::Counter::kPartitionDropped], 0u);
  EXPECT_EQ(sim.chaos_held(), 0u);  // partitions eventually heal
  EXPECT_GE(sim.deliveries(), 12u);
}

TEST(ChaosSim, PartitionDropLosesCrossTrafficForGood) {
  auto sim_ptr = make_counters(4, 0, "partition@0+1000:boundary=2,mode=drop");
  Simulation& sim = *sim_ptr;
  sim.start();
  sim.run();
  // Only the same-side traffic (self + one peer) arrives.
  for (ProcessId i = 0; i < 4; ++i) EXPECT_EQ(received_of(sim, i), 2) << i;
  EXPECT_EQ(sim.metrics().counters()[sim::Counter::kPartitionDropped], 8u);
  EXPECT_EQ(sim.metrics().counters()[sim::Counter::kPartitionHeld], 0u);
  EXPECT_EQ(sim.chaos_held(), 0u);  // dropped, not stranded
}

TEST(ChaosSim, StormDuplicatesEverySendAtPOne) {
  // p=1, copies=1: deterministically exactly one extra network copy per
  // send. Self-deliveries ride the self-queue, not the link, so only the
  // 12 cross-process broadcasts burst: 4 own receipts + 3 peers x 2.
  auto sim_ptr = make_counters(4, 0, "storm@0+100000:p=1,copies=1");
  Simulation& sim = *sim_ptr;
  sim.start();
  sim.run();
  for (ProcessId i = 0; i < 4; ++i) EXPECT_EQ(received_of(sim, i), 7) << i;
  EXPECT_EQ(sim.metrics().counters()[sim::Counter::kStormCopies], 12u);
}

TEST(ChaosSim, ChurnWavesRecycleTheSameVictimWithinBudget) {
  // Three waves (ticks 0, 40, 80) cycling one victim with f=1: the first
  // crash spends the budget, later waves re-corrupt the SAME process for
  // free. The victim set is the highest free id (3).
  auto sim_ptr = make_counters(4, 1, "churn@0+100:victims=1,down=10,every=40");
  Simulation& sim = *sim_ptr;
  sim.start();
  sim.run();
  EXPECT_EQ(sim.metrics().counters()[sim::Counter::kChurnCrashes], 3u);
  EXPECT_EQ(sim.corrupted_count(), 1u);  // within f despite three crashes
  EXPECT_TRUE(sim.is_corrupted(3));
  EXPECT_TRUE(sim.has_recovered(3));
  EXPECT_FALSE(sim.is_down(3));
  // The wave fired before on_start, so the victim never broadcast; the
  // three correct processes heard themselves and the other two peers.
  for (ProcessId i = 0; i < 3; ++i) EXPECT_EQ(received_of(sim, i), 3) << i;
}

TEST(ChaosSim, ChurnWithoutBudgetIsSkippedNotFatal) {
  // f=0: the wave finds no budget and must skip, not throw.
  auto sim_ptr = make_counters(4, 0, "churn@0+50:victims=1,down=10,every=0");
  Simulation& sim = *sim_ptr;
  sim.start();
  sim.run();
  EXPECT_EQ(sim.metrics().counters()[sim::Counter::kChurnCrashes], 0u);
  EXPECT_EQ(sim.corrupted_count(), 0u);
  for (ProcessId i = 0; i < 4; ++i) EXPECT_EQ(received_of(sim, i), 4) << i;
}

TEST(ChaosSim, CombinedScheduleIsSeedDeterministic) {
  const std::string spec =
      "storm@0+40:p=0.5,copies=2;"
      "partition@8+30:boundary=2,mode=hold;"
      "churn@20+60:victims=1,down=8,every=0";
  auto run = [&spec](std::uint64_t seed) {
    auto sim = make_counters(4, 1, spec, seed);
    sim->start();
    sim->run();
    return sim;
  };
  auto a = run(9);
  auto b = run(9);
  auto c = run(10);
  EXPECT_EQ(a->metrics().counters(), b->metrics().counters());
  EXPECT_EQ(a->metrics().correct_words(), b->metrics().correct_words());
  EXPECT_EQ(a->deliveries(), b->deliveries());
  for (ProcessId i = 0; i < 4; ++i)
    EXPECT_EQ(received_of(*a, i), received_of(*b, i)) << i;
  // Different seed: the storm draws a different burst pattern. (The
  // partition/churn phases are schedule-driven and stay identical.)
  const Counters& ca = a->metrics().counters();
  const Counters& cc = c->metrics().counters();
  EXPECT_EQ(ca[sim::Counter::kPartitionHeld], cc[sim::Counter::kPartitionHeld]);
  EXPECT_EQ(ca[sim::Counter::kChurnCrashes], cc[sim::Counter::kChurnCrashes]);
}

// ------------------------------------------------- InvariantChecker ------

InvariantChecker::Config checker_config() {
  InvariantChecker::Config cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.agreement_scopes = {"ba"};
  return cfg;
}

DecideEvent decide(ProcessId who, const char* scope, int value,
                   bool correct = true) {
  DecideEvent ev;
  ev.who = who;
  ev.scope = Tag(scope);
  ev.value = value;
  ev.correct = correct;
  return ev;
}

Message word_msg(ProcessId from, std::size_t words) {
  Message m;
  m.from = from;
  m.to = (from + 1) % 4;
  m.tag = Tag("v");
  m.words = words;
  return m;
}

TEST(InvariantCheck, CleanRunPasses) {
  InvariantChecker checker(checker_config());
  checker.on_send(word_msg(0, 3), true);
  checker.on_send(word_msg(1, 2), true);
  for (ProcessId p = 0; p < 4; ++p) checker.on_decide(decide(p, "ba", 1));
  checker.on_decide(decide(0, "ba", 1));  // re-report of the same value: fine
  checker.on_corrupt(3, FaultPlan::silent());
  checker.finalize(/*metrics_correct_words=*/5, /*held_remaining=*/0,
                   /*corrupted_count=*/1);
  EXPECT_TRUE(checker.ok()) << InvariantChecker::describe(
      checker.violations().front());
}

TEST(InvariantCheck, FlagsAgreementViolation) {
  InvariantChecker checker(checker_config());
  checker.on_decide(decide(0, "ba", 1));
  checker.on_decide(decide(1, "ba", 0));
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "agreement");
}

TEST(InvariantCheck, FlagsIntegrityDivergenceAcrossRecovery) {
  InvariantChecker checker(checker_config());
  checker.on_decide(decide(2, "ba", 1));
  checker.on_recover(2);
  checker.on_decide(decide(2, "ba", 0));
  // One decide flips both integrity (same process, new value) and
  // agreement would NOT fire (first_decision was 1, process 2 is also the
  // scope's first decider... it disagrees with itself only).
  bool integrity = false;
  for (const auto& v : checker.violations())
    if (v.invariant == "integrity") {
      integrity = true;
      EXPECT_NE(v.detail.find("across a recovery"), std::string::npos)
          << v.detail;
    }
  EXPECT_TRUE(integrity);
}

TEST(InvariantCheck, FlagsValidityAgainstUnanimousInput) {
  InvariantChecker::Config cfg = checker_config();
  cfg.expected_decision = 1;
  InvariantChecker checker(cfg);
  checker.on_decide(decide(0, "ba", 0));
  ASSERT_FALSE(checker.ok());
  bool validity = false;
  for (const auto& v : checker.violations())
    if (v.invariant == "validity") validity = true;
  EXPECT_TRUE(validity);
}

TEST(InvariantCheck, FlagsBudgetOverrunOnlineAndAtFinalize) {
  InvariantChecker checker(checker_config());  // f = 1
  checker.on_corrupt(3, FaultPlan::silent());
  EXPECT_TRUE(checker.ok());
  checker.on_corrupt(2, FaultPlan::crash());
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "budget");

  InvariantChecker late(checker_config());
  late.finalize(0, 0, /*corrupted_count=*/2);
  ASSERT_EQ(late.violations().size(), 1u);
  EXPECT_EQ(late.violations()[0].invariant, "budget");
}

TEST(InvariantCheck, FinalizeFlagsUnhealedPartitionAndWordMismatch) {
  InvariantChecker checker(checker_config());
  checker.on_send(word_msg(0, 3), true);
  checker.on_send(word_msg(1, 4), false);  // Byzantine: not §2 words
  Message repair = word_msg(2, 5);
  repair.retransmit = true;
  checker.on_send(repair, true);  // repair overhead: not §2 words either
  checker.finalize(/*metrics_correct_words=*/3, /*held_remaining=*/2,
                   /*corrupted_count=*/1);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "heal");

  InvariantChecker bad(checker_config());
  bad.on_send(word_msg(0, 3), true);
  bad.finalize(/*metrics_correct_words=*/4, 0, 0);
  ASSERT_EQ(bad.violations().size(), 1u);
  EXPECT_EQ(bad.violations()[0].invariant, "word-count");
}

TEST(InvariantCheck, FlagsPerMessageWordSanity) {
  InvariantChecker::Config cfg = checker_config();
  cfg.max_message_words = 16;
  InvariantChecker checker(cfg);
  checker.on_send(word_msg(0, 0), true);   // zero words: malformed
  checker.on_send(word_msg(1, 17), true);  // over the sanity bound
  checker.on_send(word_msg(2, 16), true);  // at the bound: legal
  ASSERT_EQ(checker.violations().size(), 2u);
  EXPECT_EQ(checker.violations()[0].invariant, "word-count");
  EXPECT_EQ(checker.violations()[1].invariant, "word-count");
}

TEST(InvariantCheck, LabelsViolationWithActiveChaosPhase) {
  InvariantChecker checker(checker_config());
  checker.on_decide(decide(0, "ba", 1));
  checker.on_chaos_phase(2, "partition", /*begin=*/true, /*at=*/64);
  checker.on_decide(decide(1, "ba", 0));
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].chaos_phase, 2u);
  const std::string line = InvariantChecker::describe(checker.violations()[0]);
  EXPECT_NE(line.find("invariant=agreement"), std::string::npos) << line;
  EXPECT_NE(line.find("phase=2"), std::string::npos) << line;

  // Without a phase, describe prints the "-" placeholder.
  InvariantChecker quiet(checker_config());
  quiet.on_decide(decide(0, "ba", 1));
  quiet.on_decide(decide(1, "ba", 0));
  EXPECT_NE(InvariantChecker::describe(quiet.violations()[0]).find("phase=-"),
            std::string::npos);
}

TEST(InvariantCheck, IgnoresOutOfScopeAndByzantineDecides) {
  InvariantChecker checker(checker_config());  // scopes = {"ba"}
  // Weak-coin sub-protocols may disagree: out of scope, no violation.
  checker.on_decide(decide(0, "ba/3/coin", 1));
  checker.on_decide(decide(1, "ba/3/coin", 0));
  // Byzantine "decisions" carry no promise.
  checker.on_decide(decide(2, "ba", 1, /*correct=*/false));
  checker.on_decide(decide(3, "ba", 0, /*correct=*/false));
  checker.finalize(0, 0, 0);
  EXPECT_TRUE(checker.ok());
}

}  // namespace
}  // namespace coincidence::sim
