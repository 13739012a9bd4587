// Chaos orchestration plane, end to end through core::run_agreement: the
// PR-gate slice of the nightly `chaos_run --sweep` grid. Every cell runs
// with the InvariantChecker attached — agreement, validity, integrity
// across recoveries, corruption budget, partition healing and the exact
// word-count cross-check all hold on every configuration, the sweep is
// bit-identical regardless of worker-thread count, and an injected
// violation produces the one-line (seed, config, schedule-phase) repro.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/runner.h"
#include "sim/chaos.h"

namespace coincidence::core {
namespace {

using sim::Counter;

/// Mirror of tools/chaos_run.cpp sweep_grid(): one full cycle is 90
/// cells — 13 copies x 6 presets on the cheap n=4 shared-coin protocol
/// plus 6 presets each for the two n=32 committee protocols. The presets
/// "adaptive" and "combined" swap the scheduler for the delayed-adaptive
/// hunter.
struct SweepCell {
  Protocol protocol;
  std::size_t n;
  std::string preset;
  AdversaryKind adversary;
};

std::vector<SweepCell> sweep_grid() {
  const std::vector<std::string>& presets = sim::ChaosSchedule::preset_names();
  auto adversary_for = [](const std::string& p) {
    return p == "adaptive" || p == "combined"
               ? AdversaryKind::kAdaptiveCorruption
               : AdversaryKind::kRandom;
  };
  std::vector<SweepCell> grid;
  for (int copy = 0; copy < 13; ++copy)
    for (const std::string& p : presets)
      grid.push_back({Protocol::kMmrSharedCoin, 4, p, adversary_for(p)});
  for (const std::string& p : presets)
    grid.push_back({Protocol::kMmrWhpCoin, 32, p, adversary_for(p)});
  for (const std::string& p : presets)
    grid.push_back({Protocol::kBaWhp, 32, p, adversary_for(p)});
  return grid;
}

RunOptions cell_options(const SweepCell& cell, std::uint64_t seed) {
  RunOptions o;
  o.protocol = cell.protocol;
  o.n = cell.n;
  o.seed = seed;
  o.adversary = cell.adversary;
  o.chaos = sim::ChaosSchedule::preset(cell.preset, cell.n);
  o.check_invariants = true;
  // Drop-mode partitions lose packets for good: liveness across them
  // needs the retransmitting transport.
  if (cell.preset == "partition-drop" || cell.preset == "combined") {
    o.reliable_channel = true;
    // Budget that cannot be exhausted inside the drop window (see
    // RunOptions::transport_retransmits).
    o.transport_retransmits = 64;
  }
  // Hunting the full f at toy n can legitimately starve a W-threshold
  // committee quorum (the Chernoff margins are asymptotic): cap the
  // hunter on the committee-coin hybrid.
  if (cell.protocol == Protocol::kMmrWhpCoin) o.adaptive_victims = 2;
  // Unanimous inputs double as a validity oracle.
  const int input = static_cast<int>(seed % 2);
  o.inputs.assign(o.n, input ? ba::kOne : ba::kZero);
  o.expected_decision = input;
  if (cell.preset == "churn" || cell.preset == "combined") {
    o.crash_recover = 1;
    o.recover_after = 64 * cell.n;
  }
  return o;
}

std::string cell_label(const SweepCell& cell, std::uint64_t seed) {
  return std::string(protocol_name(cell.protocol)) + "/" + cell.preset +
         "/" + adversary_name(cell.adversary) + "/n=" +
         std::to_string(cell.n) + "/seed=" + std::to_string(seed);
}

/// Headline fields two runs of the same config must agree on; also the
/// fields the nightly sweep digest folds.
void expect_reports_equal(const RunReport& a, const RunReport& b,
                          const std::string& label) {
  EXPECT_EQ(a.all_correct_decided, b.all_correct_decided) << label;
  EXPECT_EQ(a.decision, b.decision) << label;
  EXPECT_EQ(a.max_decided_round, b.max_decided_round) << label;
  EXPECT_EQ(a.correct_words, b.correct_words) << label;
  EXPECT_EQ(a.messages, b.messages) << label;
  EXPECT_EQ(a.corrupted, b.corrupted) << label;
  EXPECT_EQ(a.counters, b.counters) << label;
  EXPECT_EQ(a.invariant_violations.size(), b.invariant_violations.size())
      << label;
}

// One full grid cycle (90 configs) with the checker on every run: the
// quick PR-gate slice of the nightly 500+ sweep. Zero violations, zero
// stalls, and the BatchVerifier queue ledger balances on every cell.
TEST(ChaosOrchestration, QuickSweepHoldsEveryInvariant) {
  const std::vector<SweepCell> grid = sweep_grid();
  std::vector<RunOptions> options;
  std::vector<std::string> labels;
  // Seed base 1 matches the nightly `chaos_run --sweep`: ba-whp is a
  // WHP protocol and at toy n a rare seed legitimately burns all
  // max_rounds without deciding (e.g. seed 805466 stalls with no chaos
  // at all) — the sweep asserts liveness, so it runs on a seed range
  // verified to be outside that tail.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::uint64_t seed = 1 + static_cast<std::uint64_t>(i);
    options.push_back(cell_options(grid[i], seed));
    labels.push_back(cell_label(grid[i], seed));
  }
  ASSERT_EQ(options.size(), 90u);

  ThreadPool pool;
  std::vector<RunReport> reports = run_agreements_parallel(pool, options);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const RunReport& r = reports[i];
    for (const std::string& v : r.invariant_violations)
      ADD_FAILURE() << labels[i] << ": " << v;
    EXPECT_TRUE(r.all_correct_decided) << labels[i];
    EXPECT_TRUE(r.agreement) << labels[i];
    ASSERT_TRUE(r.decision.has_value()) << labels[i];
    EXPECT_EQ(*r.decision, *options[i].expected_decision) << labels[i];
    // Satellite invariant: the deferred-verification queue ledger is
    // conservative on every run — crash-recovery neither loses nor
    // double-counts a share.
    EXPECT_EQ(r.verify_enqueued, r.verify_batch_flushed + r.verify_discarded)
        << labels[i];
    // Partitions healed: everything held was released.
    EXPECT_EQ(r.counters[Counter::kPartitionHeld],
              r.counters[Counter::kPartitionReleased])
        << labels[i];
  }
}

// The sweep's outcome must not depend on worker-thread count: runs are
// independent seeded simulations and run_agreements_parallel preserves
// input order, so the 1-thread and 8-thread sweeps must agree report by
// report — the gtest analogue of `chaos_run --sweep --threads N` digest
// equality.
TEST(ChaosOrchestration, SweepIsBitIdenticalAcrossThreadCounts) {
  const std::vector<SweepCell> grid = sweep_grid();
  std::vector<RunOptions> options;
  std::vector<std::string> labels;
  // One cell per (protocol, preset) flavour keeps the serial arm cheap:
  // the last 18 grid cells are exactly the n=4 tail cycle plus both n=32
  // protocols across all six presets.
  for (std::size_t i = grid.size() - 18; i < grid.size(); ++i) {
    const std::uint64_t seed = 0xd1ce + static_cast<std::uint64_t>(i);
    options.push_back(cell_options(grid[i], seed));
    labels.push_back(cell_label(grid[i], seed));
  }
  ThreadPool serial(1);
  ThreadPool wide(8);
  std::vector<RunReport> one = run_agreements_parallel(serial, options);
  std::vector<RunReport> eight = run_agreements_parallel(wide, options);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i)
    expect_reports_equal(one[i], eight[i], labels[i]);
}

// Sabotage drill: configure the validity oracle wrong on purpose and the
// run must (a) report the violation and (b) print the one-line
// copy-pasteable repro carrying the exact (seed, config, schedule-phase)
// triple to stderr.
TEST(ChaosOrchestration, InjectedViolationPrintsOneLineSeedRepro) {
  RunOptions o;
  o.protocol = Protocol::kMmrSharedCoin;
  o.n = 4;
  o.seed = 2;
  o.check_invariants = true;
  // Inputs are unanimously 0; claiming the unanimous input was 1 makes
  // every correct decision a "validity violation".
  o.inputs.assign(o.n, ba::kZero);
  o.expected_decision = 1;
  o.chaos = sim::ChaosSchedule::parse("storm@0+64:p=0.25,copies=2");

  testing::internal::CaptureStderr();
  RunReport report = run_agreement(o);
  const std::string err = testing::internal::GetCapturedStderr();

  ASSERT_FALSE(report.invariant_violations.empty());
  EXPECT_NE(report.invariant_violations[0].find("invariant=validity"),
            std::string::npos)
      << report.invariant_violations[0];
  // The repro line: marker, binary, and the full triple.
  EXPECT_NE(err.find("CHAOS-VIOLATION"), std::string::npos) << err;
  EXPECT_NE(err.find("chaos_run --protocol mmr-vrf-coin --n 4 --seed 2"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("--schedule \"storm@0+64:p=0.25,copies=2\""),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("invariant=validity"), std::string::npos) << err;
  // One line per violation: the first line is self-contained.
  EXPECT_NE(err.find('\n'), std::string::npos);
}

// A clean chaos run prints nothing: the repro line is a violation-only
// channel, so sweep logs stay greppable.
TEST(ChaosOrchestration, CleanRunPrintsNoRepro) {
  RunOptions o;
  o.protocol = Protocol::kMmrSharedCoin;
  o.n = 4;
  o.seed = 3;
  o.check_invariants = true;
  o.inputs.assign(o.n, ba::kOne);
  o.expected_decision = 1;
  o.chaos = sim::ChaosSchedule::preset("combined", o.n);
  o.reliable_channel = true;
  o.crash_recover = 1;
  o.recover_after = 64 * o.n;

  testing::internal::CaptureStderr();
  RunReport report = run_agreement(o);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(report.invariant_violations.empty());
  EXPECT_EQ(err.find("CHAOS-VIOLATION"), std::string::npos) << err;
}

// ISSUE satellite: a healing drop-mode partition over net::ReliableChannel
// — the retransmission layer must drain the healed partition to a
// decision with exactly-once delivery (the checker's word cross-check
// would flag any double-count), and the loss accounting must keep
// partitioning the metrics exactly: drops, retransmits and dead letters
// each land in their own bucket, never in the §2 word complexity.
TEST(ChaosOrchestration, PartitionHealOverReliableChannelDrainsExactlyOnce) {
  RunOptions o;
  o.protocol = Protocol::kBaWhp;
  o.n = 32;
  o.seed = 11;
  o.check_invariants = true;
  o.inputs.assign(o.n, ba::kOne);
  o.expected_decision = 1;
  o.chaos = sim::ChaosSchedule::preset("partition-drop", o.n);
  o.reliable_channel = true;

  RunReport report = run_agreement(o);
  for (const std::string& v : report.invariant_violations)
    ADD_FAILURE() << v;
  EXPECT_TRUE(report.all_correct_decided);
  EXPECT_TRUE(report.agreement);
  ASSERT_TRUE(report.decision.has_value());
  EXPECT_EQ(*report.decision, 1);
  // The partition really dropped traffic, and repair really happened.
  EXPECT_GT(report.counters[Counter::kPartitionDropped], 0u);
  // Drop mode buffers nothing.
  EXPECT_EQ(report.counters[Counter::kPartitionHeld], 0u);
  EXPECT_GT(report.counters[Counter::kRetransmits], 0u);
  EXPECT_GT(report.counters[Counter::kRetransmitWords], 0u);
  // Accounting partitions exactly: repair words and abandoned frames are
  // outside the §2 measure, and abandoned frames are bounded by traffic
  // that actually went on the wire.
  EXPECT_GT(report.correct_words, 0u);
  EXPECT_LE(report.counters[Counter::kDeadLetterWords],
            report.correct_words + report.counters[Counter::kRetransmitWords]);
}

// The adaptive hunter obeys the corruption budget even stacked on top of
// churn waves and a static crash-recover mix: the checker's budget
// invariant (online and at finalize) passed, and the final corrupted
// count stays within the protocol's resilience.
TEST(ChaosOrchestration, AdaptiveHunterPlusChurnStaysWithinBudget) {
  RunOptions o;
  o.protocol = Protocol::kBaWhp;
  o.n = 32;
  o.seed = 5;
  o.adversary = AdversaryKind::kAdaptiveCorruption;
  o.check_invariants = true;
  o.inputs.assign(o.n, ba::kZero);
  o.expected_decision = 0;
  o.chaos = sim::ChaosSchedule::preset("combined", o.n);
  o.reliable_channel = true;
  o.crash_recover = 1;
  o.recover_after = 64 * o.n;

  RunReport report = run_agreement(o);
  for (const std::string& v : report.invariant_violations)
    ADD_FAILURE() << v;
  EXPECT_TRUE(report.all_correct_decided);
  ASSERT_TRUE(report.decision.has_value());
  EXPECT_EQ(*report.decision, 0);
  EXPECT_LE(report.corrupted, report.protocol_f);
  EXPECT_GT(report.corrupted, 0u);  // the hostility was real
  EXPECT_GT(report.counters[Counter::kChurnCrashes], 0u);
}

}  // namespace
}  // namespace coincidence::core
