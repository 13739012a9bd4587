// Multi-instance sessions: many concurrent BA slots over ONE trusted
// setup (§3's "setup occurs once" property), interleaved on one network.
#include <gtest/gtest.h>

#include <optional>

#include "ba/instance_mux.h"
#include "common/errors.h"
#include "core/session.h"
#include "session/log_driver.h"

namespace coincidence::core {
namespace {

TEST(Session, ConcurrentSlotsAllDecideCorrectly) {
  Session session(Env::make_relaxed(48, 11));
  // Slot 0: unanimous 1; slot 1: unanimous 0; slot 2: split.
  std::vector<std::vector<ba::Value>> inputs(3,
                                             std::vector<ba::Value>(48, 0));
  inputs[0].assign(48, ba::kOne);
  for (std::size_t i = 0; i < 24; ++i) inputs[2][i] = ba::kOne;

  SessionReport r = session.run_concurrent_slots(inputs, /*seed=*/5);
  ASSERT_EQ(r.slots.size(), 3u);
  ASSERT_TRUE(r.all_slots_decided());
  EXPECT_EQ(*r.slots[0].decision, 1);  // validity
  EXPECT_EQ(*r.slots[1].decision, 0);  // validity
  EXPECT_TRUE(r.slots[2].decision.has_value());  // agreement on either
  for (const auto& s : r.slots) EXPECT_TRUE(s.agreement);
}

TEST(Session, SlotsAreIndependentDespiteSharedSetup) {
  // Same keys, different slot tags => different committees per slot, and
  // the decisions of unanimous slots never leak across.
  Session session(Env::make_relaxed(48, 12));
  const auto& sampler = *session.env().sampler;
  std::vector<crypto::ProcessId> c0, c1;
  for (crypto::ProcessId i = 0; i < 48; ++i) {
    if (sampler.sample(i, "slot0/0/a1/init").sampled) c0.push_back(i);
    if (sampler.sample(i, "slot1/0/a1/init").sampled) c1.push_back(i);
  }
  EXPECT_NE(c0, c1);  // fresh committees from one PKI

  std::vector<std::vector<ba::Value>> inputs;
  inputs.push_back(std::vector<ba::Value>(48, ba::kOne));
  inputs.push_back(std::vector<ba::Value>(48, ba::kZero));
  SessionReport r = session.run_concurrent_slots(inputs, 6);
  ASSERT_TRUE(r.all_slots_decided());
  EXPECT_EQ(*r.slots[0].decision, 1);
  EXPECT_EQ(*r.slots[1].decision, 0);
}

TEST(Session, ToleratesSilentFaultsAcrossAllSlots) {
  Session session(Env::make_relaxed(60, 13));
  std::vector<std::vector<ba::Value>> inputs(2,
                                             std::vector<ba::Value>(60, 1));
  SessionReport r =
      session.run_concurrent_slots(inputs, 7, /*silent_faults=*/3);
  ASSERT_TRUE(r.all_slots_decided());
  EXPECT_EQ(*r.slots[0].decision, 1);
  EXPECT_EQ(*r.slots[1].decision, 1);
}

// The BENCH_session.json stall: with the seed-15 setup two silent
// processes push one slot's round-0 a2 committee below W live members
// (see BaWhpSkip.* in tests/ba), so 7/8 and 14/16 slots decided and the
// wedged rest sat in round 0 forever. These inputs reproduce the bench
// rows bit-for-bit.
std::vector<std::vector<ba::Value>> bench_inputs(std::size_t slots,
                                                 std::size_t n) {
  std::vector<std::vector<ba::Value>> inputs(slots,
                                             std::vector<ba::Value>(n, 0));
  for (std::size_t s = 0; s < slots; ++s)
    for (std::size_t i = 0; i < n; ++i)
      inputs[s][i] = static_cast<ba::Value>((s % 2) ? (i % 2) : (s % 3 == 0));
  return inputs;
}

TEST(SessionSkip, WedgedSlotStallsWithoutFallback) {
  Session session(Env::make_relaxed(48, 15));
  SessionReport r = session.run_concurrent_slots(bench_inputs(8, 48),
                                                 /*seed=*/23, /*silent=*/2);
  EXPECT_FALSE(r.all_slots_decided());  // the pinned liveness bug
  std::size_t decided = 0;
  for (const auto& s : r.slots) decided += s.all_correct_decided;
  EXPECT_EQ(decided, 7u);
  for (const auto& s : r.slots) {
    if (s.all_correct_decided) continue;
    // The honest telemetry: a wedged slot reports the round it sat in
    // (0), and reports it via max_round_reached — decided-round-only
    // telemetry showed 0.0 for every row and hid the stall.
    EXPECT_EQ(s.max_round_reached, 0u);
    EXPECT_EQ(s.rounds_skipped, 0u);
  }
}

TEST(SessionSkip, SixteenSlotsAllDecideWithFallback) {
  Session session(Env::make_relaxed(48, 15));
  SessionOptions opts;
  opts.skip_timeout = session::auto_skip_timeout(48, 16);
  session.set_options(opts);
  SessionReport r = session.run_concurrent_slots(bench_inputs(16, 48),
                                                 /*seed=*/31, /*silent=*/2);
  ASSERT_TRUE(r.all_slots_decided());  // 16/16 — the regression gate
  std::uint64_t rounds_max = 0, skipped = 0;
  for (const auto& s : r.slots) {
    EXPECT_TRUE(s.agreement);
    rounds_max = std::max(rounds_max, s.max_round_reached);
    skipped += s.rounds_skipped;
  }
  // Rescued slots decide in round >= 1, so the rounds telemetry can no
  // longer read 0.0 across the board.
  EXPECT_GE(rounds_max, 1u);
  EXPECT_GE(skipped, 1u);
}

TEST(SessionSkip, ShardCountCannotLeakIntoSessionResults) {
  // Concurrent slots + armed skip wakeups on the sharded superstep
  // engine: every shard count must produce the same run.
  std::optional<SessionReport> base;
  for (std::size_t shards : {1, 2, 4, 8}) {
    Session session(Env::make_relaxed(48, 15));
    SessionOptions opts;
    opts.skip_timeout = session::auto_skip_timeout(48, 3);
    opts.shards = shards;
    session.set_options(opts);
    SessionReport r = session.run_concurrent_slots(bench_inputs(3, 48),
                                                   /*seed=*/9, /*silent=*/2);
    ASSERT_TRUE(r.all_slots_decided()) << "shards=" << shards;
    if (!base) {
      base = std::move(r);
      continue;
    }
    EXPECT_EQ(r.correct_words, base->correct_words) << "shards=" << shards;
    EXPECT_EQ(r.messages, base->messages) << "shards=" << shards;
    EXPECT_EQ(r.duration, base->duration) << "shards=" << shards;
    for (std::size_t s = 0; s < r.slots.size(); ++s) {
      EXPECT_EQ(*r.slots[s].decision, *base->slots[s].decision);
      EXPECT_EQ(r.slots[s].max_decided_round, base->slots[s].max_decided_round);
      EXPECT_EQ(r.slots[s].max_round_reached, base->slots[s].max_round_reached);
      EXPECT_EQ(r.slots[s].rounds_skipped, base->slots[s].rounds_skipped);
      EXPECT_EQ(r.slots[s].correct_words, base->slots[s].correct_words);
    }
  }
}

TEST(Session, RejectsBadShapes) {
  Session session(Env::make_relaxed(48, 14));
  EXPECT_THROW(session.run_concurrent_slots({}, 1), PreconditionError);
  std::vector<std::vector<ba::Value>> wrong_n(1,
                                              std::vector<ba::Value>(10, 0));
  EXPECT_THROW(session.run_concurrent_slots(wrong_n, 1), PreconditionError);
}

TEST(InstanceMux, RoutesByPrefixAndRejectsDuplicates) {
  ba::InstanceMux mux;
  EXPECT_THROW(mux.add_instance("", nullptr), PreconditionError);
  EXPECT_THROW(mux.instance("nope"), PreconditionError);
  EXPECT_THROW(mux.add_instance("a/b", nullptr), PreconditionError);
  EXPECT_EQ(mux.instance_count(), 0u);
}

}  // namespace
}  // namespace coincidence::core
