// ReliableChannel / ReliableProcess: exactly-once delivery on top of the
// lossy-link substrate, with repair traffic accounted separately.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "net/reliable_process.h"
#include "sim/simulation.h"

namespace coincidence::net {
namespace {

using sim::Counter;

/// Sends `count` distinct messages to `target` at start; counts every
/// application-level receipt by tag.
class Pitcher final : public sim::Process {
 public:
  Pitcher(sim::ProcessId target, int count)
      : target_(target), count_(count) {}

  void on_start(sim::Context& ctx) override {
    for (int i = 0; i < count_; ++i)
      ctx.send(target_, "m/" + std::to_string(i), bytes_of("payload"), 2);
  }
  void on_message(sim::Context&, const sim::Message& msg) override {
    const std::string& tag = msg.tag.str();
    if (tag.rfind("m/", 0) == 0) ++got[tag];
  }

  std::map<std::string, int> got;

 private:
  sim::ProcessId target_;
  int count_;
};

struct WrappedPair {
  std::unique_ptr<sim::Simulation> sim;
  Pitcher* sender = nullptr;    // inner process 0
  Pitcher* receiver = nullptr;  // inner process 1
  const ReliableChannel* sender_channel = nullptr;
};

WrappedPair make_pair_sim(int count, sim::NetworkProfile net,
                          std::uint64_t seed, std::size_t f = 0,
                          ReliableChannelConfig ccfg = {}) {
  sim::SimConfig cfg;
  cfg.n = 2;
  cfg.f = f;
  cfg.seed = seed;
  cfg.network = std::move(net);
  WrappedPair out;
  out.sim = std::make_unique<sim::Simulation>(cfg);
  out.sim->add_process(std::make_unique<ReliableProcess>(
      std::make_unique<Pitcher>(1, count), ccfg));
  out.sim->add_process(std::make_unique<ReliableProcess>(
      std::make_unique<Pitcher>(0, 0), ccfg));
  auto& p0 = dynamic_cast<ReliableProcess&>(out.sim->process(0));
  auto& p1 = dynamic_cast<ReliableProcess&>(out.sim->process(1));
  out.sender = &dynamic_cast<Pitcher&>(p0.inner());
  out.receiver = &dynamic_cast<Pitcher&>(p1.inner());
  out.sender_channel = &p0.channel();
  return out;
}

void expect_exactly_once(const Pitcher& receiver, int count) {
  ASSERT_EQ(receiver.got.size(), static_cast<std::size_t>(count));
  for (const auto& [tag, n] : receiver.got) EXPECT_EQ(n, 1) << tag;
}

TEST(ReliableChannel, DeliversExactlyOnceOnLosslessLinks) {
  auto pair = make_pair_sim(5, sim::NetworkProfile::lossless(), 3);
  pair.sim->start();
  pair.sim->run();
  expect_exactly_once(*pair.receiver, 5);
  EXPECT_EQ(pair.sender_channel->unacked(), 0u);
  EXPECT_EQ(pair.sim->metrics().counters()[Counter::kRetransmits], 0u);
}

TEST(ReliableChannel, SuppressesLinkDuplicates) {
  auto pair = make_pair_sim(
      5, sim::NetworkProfile::uniform(sim::LinkPlan::duplicating(1.0, 2)), 5);
  pair.sim->start();
  pair.sim->run();
  expect_exactly_once(*pair.receiver, 5);
  // Every data frame was duplicated on the wire, so the receiver's
  // channel must have swallowed copies.
  const auto& rx =
      dynamic_cast<ReliableProcess&>(pair.sim->process(1)).channel();
  EXPECT_GT(rx.duplicates_suppressed(), 0u);
  EXPECT_EQ(rx.delivered(), 5u);
}

TEST(ReliableChannel, RetransmitsThroughHeavyLoss) {
  auto pair = make_pair_sim(
      10, sim::NetworkProfile::uniform(sim::LinkPlan::lossy(0.4)), 7);
  pair.sim->start();
  pair.sim->run();
  // 40% loss on both the data and the ack direction: everything still
  // arrives, exactly once, because wakeup timers keep retransmitting
  // even after the network drains.
  expect_exactly_once(*pair.receiver, 10);
  EXPECT_EQ(pair.sender_channel->unacked(), 0u);
  EXPECT_GT(pair.sim->metrics().counters()[Counter::kRetransmits], 0u);
  EXPECT_GT(pair.sim->metrics().counters()[Counter::kLinkDrops], 0u);
}

TEST(ReliableChannel, RepairTrafficAccountedSeparately) {
  auto pair = make_pair_sim(
      10, sim::NetworkProfile::uniform(sim::LinkPlan::lossy(0.4)), 9);
  pair.sim->start();
  pair.sim->run();
  const auto& m = pair.sim->metrics();
  EXPECT_GT(m.counters()[Counter::kRetransmitWords], 0u);
  // All processes are correct, so every word is either protocol cost or
  // repair overhead — and the buckets must not bleed into each other.
  EXPECT_EQ(m.correct_words() + m.counters()[Counter::kRetransmitWords],
            m.total_words());
  // The paper-complexity buckets see channel framing, never repair.
  ASSERT_TRUE(m.words_by_tag().count("dat"));
  ASSERT_TRUE(m.words_by_tag().count("ack"));
}

TEST(ReliableChannel, MalformedFramesAreSwallowed) {
  auto pair = make_pair_sim(0, sim::NetworkProfile::lossless(), 11,
                            /*f=*/1);
  pair.sim->corrupt(1, sim::FaultPlan::silent());
  pair.sim->start();
  pair.sim->inject(1, 0, "net/dat", bytes_of("not a frame"), 1);
  pair.sim->inject(1, 0, "net/ack", bytes_of("junk"), 1);
  pair.sim->inject(1, 0, "net/dat", {}, 1);
  pair.sim->run();  // must not throw out of the decoder
  const auto& rx =
      dynamic_cast<ReliableProcess&>(pair.sim->process(0)).channel();
  EXPECT_EQ(rx.delivered(), 0u);
  EXPECT_TRUE(pair.receiver->got.empty());
}

TEST(ReliableChannel, GivesUpOnDeadPeerInsteadOfLivelocking) {
  ReliableChannelConfig ccfg;
  ccfg.initial_rto = 4;
  ccfg.max_rto = 16;
  ccfg.max_retransmits = 3;
  auto pair = make_pair_sim(2, sim::NetworkProfile::lossless(), 13,
                            /*f=*/1, ccfg);
  pair.sim->corrupt(1, sim::FaultPlan::crash());
  pair.sim->start();
  pair.sim->run();  // terminates: the retry cap bounds the repair loop
  EXPECT_EQ(pair.sender_channel->abandoned(), 2u);
  EXPECT_EQ(pair.sender_channel->unacked(), 0u);
  EXPECT_EQ(pair.sim->metrics().counters()[Counter::kRetransmits], 2u * 3u);
}

TEST(ReliableChannel, SelfSendsBypassTheChannel) {
  sim::SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 15;
  sim::Simulation sim(cfg);
  sim.add_process(std::make_unique<ReliableProcess>(
      std::make_unique<Pitcher>(0, 4)));  // process 0 sends to itself
  sim.add_process(std::make_unique<ReliableProcess>(
      std::make_unique<Pitcher>(0, 0)));
  sim.start();
  sim.run();
  auto& p0 = dynamic_cast<ReliableProcess&>(sim.process(0));
  expect_exactly_once(dynamic_cast<Pitcher&>(p0.inner()), 4);
  EXPECT_EQ(p0.channel().delivered(), 0u);  // no framing, no acks
  EXPECT_EQ(sim.metrics().words_by_tag().count("dat"), 0u);
}

/// Counts on_dead_letter firings and the words they carried.
class DeadLetterCounter final : public sim::Observer {
 public:
  std::uint64_t count = 0;
  std::uint64_t words = 0;
  void on_dead_letter(sim::ProcessId, sim::ProcessId, const sim::Tag&,
                      std::size_t w) override {
    ++count;
    words += w;
  }
};

// ISSUE 4 satellite: giving up after max_retransmits used to be silent —
// the frame vanished from unacked() and nothing recorded the loss. Every
// abandoned frame must now surface through Metrics AND the observer
// hook, and the three counts must agree exactly.
TEST(ReliableChannel, AbandonedFramesAreAccountedNotSilent) {
  ReliableChannelConfig ccfg;
  ccfg.initial_rto = 4;
  ccfg.max_rto = 16;
  ccfg.max_retransmits = 3;
  auto pair = make_pair_sim(2, sim::NetworkProfile::lossless(), 13,
                            /*f=*/1, ccfg);
  auto counter = std::make_shared<DeadLetterCounter>();
  pair.sim->add_observer(counter);
  pair.sim->corrupt(1, sim::FaultPlan::crash());
  pair.sim->start();
  pair.sim->run();

  EXPECT_EQ(pair.sender_channel->abandoned(), 2u);
  EXPECT_EQ(pair.sim->metrics().counters()[Counter::kDeadLetters],
            pair.sender_channel->abandoned());
  EXPECT_EQ(counter->count, pair.sender_channel->abandoned());
  // Each abandoned frame carried the 2-word payload; the words are
  // reported too so lossy experiments can bound what was lost.
  EXPECT_EQ(pair.sim->metrics().counters()[Counter::kDeadLetterWords],
            counter->words);
  EXPECT_GT(counter->words, 0u);
}

TEST(ReliableChannel, NoDeadLettersWhenEverythingAcks) {
  auto pair = make_pair_sim(
      10, sim::NetworkProfile::uniform(sim::LinkPlan::lossy(0.4)), 7);
  pair.sim->start();
  pair.sim->run();
  // Heavy loss but a live peer and the default generous retry budget:
  // nothing may be abandoned, and the accounting must agree on zero.
  EXPECT_EQ(pair.sender_channel->abandoned(), 0u);
  EXPECT_EQ(pair.sim->metrics().counters()[Counter::kDeadLetters], 0u);
  EXPECT_EQ(pair.sim->metrics().counters()[Counter::kDeadLetterWords], 0u);
}

TEST(ReliableChannel, SameSeedSameRepairSchedule) {
  auto run = [](std::uint64_t seed) {
    auto pair = make_pair_sim(
        8, sim::NetworkProfile::uniform(sim::LinkPlan::lossy(0.3)), seed);
    pair.sim->start();
    pair.sim->run();
    const sim::Metrics& m = pair.sim->metrics();
    return std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>(
        m.counters()[Counter::kRetransmits], m.counters()[Counter::kLinkDrops],
        m.deliveries());
  };
  EXPECT_EQ(run(21), run(21));
}

}  // namespace
}  // namespace coincidence::net
