// One flag vocabulary for run_report, chaos_run and the CHAOS-VIOLATION
// repro line: parse_run_options(repro_command(o)) must rebuild every
// field the parser reads, and a failing run's printed line must replay
// the same run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/errors.h"
#include "core/runner.h"

namespace coincidence::core {
namespace {

/// Splits a command line as a shell would for these lines: words split
/// on spaces, double quotes group, and `#` starts a comment.
std::vector<std::string> shell_words(const std::string& line) {
  std::vector<std::string> words;
  std::string word;
  bool quoted = false, in_word = false;
  for (char c : line) {
    if (c == '"') {
      quoted = !quoted;
      in_word = true;
    } else if (c == ' ' && !quoted) {
      if (in_word) words.push_back(word);
      word.clear();
      in_word = false;
    } else if (c == '#' && !quoted && !in_word) {
      break;
    } else {
      word += c;
      in_word = true;
    }
  }
  if (in_word) words.push_back(word);
  return words;
}

RunOptions parse_line(const std::string& line) {
  std::vector<std::string> words = shell_words(line);
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  return parse_run_options(Args(static_cast<int>(argv.size()), argv.data()));
}

/// Every field parse_run_options reads, except the inputs.
void expect_same_flags(const RunOptions& a, const RunOptions& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.adversary, b.adversary);
  EXPECT_EQ(a.rbc, b.rbc);
  EXPECT_EQ(a.epsilon, b.epsilon);
  EXPECT_EQ(a.d, b.d);
  EXPECT_EQ(a.max_rounds, b.max_rounds);
  EXPECT_EQ(a.crash, b.crash);
  EXPECT_EQ(a.silent, b.silent);
  EXPECT_EQ(a.junk, b.junk);
  EXPECT_EQ(a.crash_recover, b.crash_recover);
  EXPECT_EQ(a.recover_after, b.recover_after);
  EXPECT_EQ(a.network.default_link.drop_p, b.network.default_link.drop_p);
  EXPECT_EQ(a.network.default_link.dup_p, b.network.default_link.dup_p);
  EXPECT_EQ(a.network.default_link.replay_p,
            b.network.default_link.replay_p);
  EXPECT_EQ(a.reliable_channel, b.reliable_channel);
  EXPECT_EQ(a.transport_retransmits, b.transport_retransmits);
  EXPECT_EQ(a.adaptive_victims, b.adaptive_victims);
  EXPECT_EQ(a.defer_verify, b.defer_verify);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.chaos.spec(), b.chaos.spec());
  EXPECT_EQ(a.expected_decision, b.expected_decision);
}

void expect_round_trip(const RunOptions& o) {
  const std::string line = repro_command(o);
  SCOPED_TRACE(line);
  const RunOptions back = parse_line(line);
  expect_same_flags(o, back);
  EXPECT_EQ(o.inputs, back.inputs);
}

RunOptions lossy_ec() {
  RunOptions o;
  o.protocol = Protocol::kBracha;
  o.n = 7;
  o.seed = 3;
  o.rbc = ba::RbcBackend::kEc;
  o.d = 0.001;
  o.network.default_link.drop_p = 0.02;
  o.network.default_link.dup_p = 0.1;
  o.network.default_link.replay_p = 0.05;
  o.reliable_channel = true;
  o.transport_retransmits = 64;
  o.junk = 1;
  o.crash_recover = 1;
  o.recover_after = 448;
  o.shards = 2;
  o.threads = 1;
  o.inputs = {ba::kOne, ba::kOne, ba::kOne, ba::kZero,
              ba::kZero, ba::kZero, ba::kZero};
  return o;
}

TEST(RunFlags, LossyErasureCodedRunRoundTrips) {
  const RunOptions o = lossy_ec();
  const std::string line = repro_command(o);
  EXPECT_NE(line.find(" --rbc ec"), std::string::npos) << line;
  EXPECT_NE(line.find(" --d 0.001"), std::string::npos) << line;
  EXPECT_NE(line.find(" --drop 0.02 --dup 0.1 --replay 0.05"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(" --reliable-channel --retransmits 64"),
            std::string::npos)
      << line;
  EXPECT_EQ(line.find('#'), std::string::npos) << line;
  expect_round_trip(o);
}

TEST(RunFlags, ChaosPresetRunRoundTrips) {
  RunOptions o;
  o.protocol = Protocol::kBaWhp;
  o.n = 32;
  o.seed = 12;
  o.epsilon = 0.2;
  o.max_rounds = 9;
  o.adversary = AdversaryKind::kAdaptiveCorruption;
  o.adaptive_victims = 2;
  o.defer_verify = false;
  o.chaos = sim::ChaosSchedule::preset("combined", o.n);
  o.inputs.assign(o.n, ba::kOne);
  o.expected_decision = 1;
  expect_round_trip(o);
}

TEST(RunFlags, WhatNoFlagCarriesIsNoted) {
  RunOptions o = lossy_ec();
  o.inputs[5] = ba::kOne;  // 1 1 1 0 0 1 0: not a ones-prefix
  o.network.default_link.max_duplicates = 2;
  const std::string line = repro_command(o);
  EXPECT_NE(line.find("  # inputs are not a ones-prefix"), std::string::npos)
      << line;
  EXPECT_NE(line.find("max_duplicates"), std::string::npos) << line;
  // Everything before the note still replays; the inputs come back as
  // their ones-prefix.
  const RunOptions back = parse_line(line);
  expect_same_flags(o, back);
  EXPECT_EQ(back.inputs,
            std::vector<ba::Value>(
                {ba::kOne, ba::kOne, ba::kOne, ba::kZero, ba::kZero,
                 ba::kZero, ba::kZero}));
}

TEST(RunFlags, ToolDefaultsAndRefusals) {
  // A tool pre-fills its own defaults; absent flags keep them.
  EXPECT_EQ(parse_line("run_report --seed 4").n, RunOptions{}.n);
  RunOptions prefilled;
  prefilled.n = 10;
  prefilled.inputs.assign(5, ba::kOne);
  const RunOptions half = parse_run_options(Args(0, nullptr), prefilled);
  EXPECT_EQ(half.n, 10u);
  EXPECT_EQ(std::count(half.inputs.begin(), half.inputs.end(), ba::kOne),
            5);
  EXPECT_FALSE(half.expected_decision.has_value());

  EXPECT_THROW(parse_line("x --protocol nope"), ConfigError);
  EXPECT_THROW(parse_line("x --adversary nope"), ConfigError);
  EXPECT_THROW(parse_line("x --rbc nope"), ConfigError);
  EXPECT_THROW(parse_line("x --shards 2 --adversary fifo"), ConfigError);
}

TEST(RunFlags, FailingRunReplaysFromItsReproLine) {
  RunOptions o = lossy_ec();
  o.check_invariants = true;
  o.inputs.assign(o.n, ba::kZero);
  o.expected_decision = 1;  // unanimous 0 can never decide 1: a violation

  testing::internal::CaptureStderr();
  const RunReport first = run_agreement(o);
  const std::string err = testing::internal::GetCapturedStderr();
  ASSERT_FALSE(first.invariant_violations.empty());
  const std::string marker = "CHAOS-VIOLATION ";
  ASSERT_EQ(err.rfind(marker, 0), 0u) << err;
  const std::string line =
      err.substr(marker.size(), err.find('\n') - marker.size());

  RunOptions replay = parse_line(line);
  replay.check_invariants = true;  // as chaos_run sets it
  testing::internal::CaptureStderr();
  const RunReport again = run_agreement(replay);
  testing::internal::GetCapturedStderr();

  EXPECT_EQ(first.decision, again.decision);
  EXPECT_EQ(first.correct_words, again.correct_words);
  EXPECT_EQ(first.messages, again.messages);
  EXPECT_EQ(first.duration, again.duration);
  EXPECT_EQ(first.words_by_tag, again.words_by_tag);
  EXPECT_TRUE(first.counters == again.counters);
  EXPECT_EQ(first.invariant_violations, again.invariant_violations);
  EXPECT_EQ(first.verify_enqueued, again.verify_enqueued);
  EXPECT_EQ(first.sig_checks, again.sig_checks);
}

}  // namespace
}  // namespace coincidence::core
