// Lossy-link injection (sim/link.h) and delivery-event timers: the
// substrate-level half of the chaos machinery. Everything here is seeded
// and replayable — the same config must produce the same drops.
#include <gtest/gtest.h>

#include "common/errors.h"
#include "sim/simulation.h"

namespace coincidence::sim {
namespace {

/// Everyone broadcasts one "v" at start and counts receipts.
class Counter final : public Process {
 public:
  void on_start(Context& ctx) override { ctx.broadcast("v", bytes_of("v"), 1); }
  void on_message(Context&, const Message& msg) override {
    if (msg.tag == "v") ++received;
  }
  int received = 0;
};

/// Broadcasts `rounds` waves: one at start, the next each time it has
/// heard a full wave — enough sustained per-link traffic for replays.
class Chatter final : public Process {
 public:
  explicit Chatter(int rounds) : rounds_(rounds) {}
  void on_start(Context& ctx) override {
    ctx.broadcast("c/0", bytes_of("c"), 1);
  }
  void on_message(Context& ctx, const Message& msg) override {
    ++received;
    if (++heard_ % ctx.n() == 0 && sent_ < rounds_) {
      ctx.broadcast("c/" + std::to_string(sent_), bytes_of("c"), 1);
      ++sent_;
    }
  }
  int received = 0;

 private:
  int rounds_;
  int heard_ = 0;
  int sent_ = 1;
};

template <typename P, typename... Args>
std::unique_ptr<Simulation> make_sim(std::size_t n, NetworkProfile net,
                                     std::uint64_t seed, Args&&... args) {
  SimConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.network = std::move(net);
  auto sim = std::make_unique<Simulation>(cfg);
  for (std::size_t i = 0; i < n; ++i)
    sim->add_process(std::make_unique<P>(args...));
  return sim;
}

int received(Simulation& sim, ProcessId id) {
  if (auto* c = dynamic_cast<Counter*>(&sim.process(id))) return c->received;
  return dynamic_cast<Chatter&>(sim.process(id)).received;
}

TEST(LinkFaults, LosslessProfileMatchesDefault) {
  auto plain = make_sim<Counter>(4, NetworkProfile{}, 5);
  auto lossless = make_sim<Counter>(4, NetworkProfile::lossless(), 5);
  for (auto* sim : {plain.get(), lossless.get()}) {
    sim->start();
    sim->run();
  }
  for (ProcessId i = 0; i < 4; ++i)
    EXPECT_EQ(received(*plain, i), received(*lossless, i)) << i;
  EXPECT_EQ(plain->metrics().deliveries(), lossless->metrics().deliveries());
  EXPECT_EQ(lossless->metrics().counters()[sim::Counter::kLinkDrops], 0u);
  EXPECT_EQ(lossless->metrics().counters()[sim::Counter::kLinkDuplicates], 0u);
  EXPECT_EQ(lossless->metrics().counters()[sim::Counter::kLinkReplays], 0u);
}

TEST(LinkFaults, FullDropLosesAllCrossTraffic) {
  auto sim = make_sim<Counter>(4, NetworkProfile::uniform(LinkPlan::lossy(1.0)),
                               7);
  sim->start();
  sim->run();
  // Self-links are exempt: everyone still gets exactly their own copy.
  for (ProcessId i = 0; i < 4; ++i) EXPECT_EQ(received(*sim, i), 1) << i;
  EXPECT_EQ(sim->metrics().counters()[sim::Counter::kLinkDrops], 4u * 3u);
  EXPECT_EQ(sim->metrics().counters()[sim::Counter::kLinkDroppedWords],
            4u * 3u);
  // The senders were still charged: drops happen after the send event.
  EXPECT_EQ(sim->metrics().correct_words(), 4u * 4u);
}

TEST(LinkFaults, PartialDropIsSeededAndCounted) {
  auto sim = make_sim<Counter>(
      6, NetworkProfile::uniform(LinkPlan::lossy(0.5)), 11);
  sim->start();
  sim->run();
  const std::uint64_t drops =
      sim->metrics().counters()[sim::Counter::kLinkDrops];
  EXPECT_GT(drops, 0u);
  EXPECT_LT(drops, 6u * 5u);
  std::uint64_t delivered_cross = 0;
  for (ProcessId i = 0; i < 6; ++i)
    delivered_cross += static_cast<std::uint64_t>(received(*sim, i)) - 1;
  EXPECT_EQ(delivered_cross + drops, 6u * 5u);
}

TEST(LinkFaults, CertainDuplicationDeliversEveryMessageTwice) {
  auto sim = make_sim<Counter>(
      4, NetworkProfile::uniform(LinkPlan::duplicating(1.0, 1)), 13);
  sim->start();
  sim->run();
  for (ProcessId i = 0; i < 4; ++i)
    EXPECT_EQ(received(*sim, i), 1 + 2 * 3) << i;  // self once, peers twice
  EXPECT_EQ(sim->metrics().counters()[sim::Counter::kLinkDuplicates], 4u * 3u);
  // Network-made copies charge no words to anyone.
  EXPECT_EQ(sim->metrics().correct_words(), 4u * 4u);
}

TEST(LinkFaults, MaxDuplicatesBoundsExtraCopies) {
  auto sim = make_sim<Counter>(
      4, NetworkProfile::uniform(LinkPlan::duplicating(1.0, 3)), 17);
  sim->start();
  sim->run();
  for (ProcessId i = 0; i < 4; ++i) {
    EXPECT_GE(received(*sim, i), 1 + 2 * 3) << i;
    EXPECT_LE(received(*sim, i), 1 + 4 * 3) << i;
  }
}

TEST(LinkFaults, ReplayResurrectsDeliveredMessages) {
  auto sim = make_sim<Chatter>(
      4, NetworkProfile::uniform(LinkPlan::replaying(0.9)), 19, /*rounds=*/6);
  sim->start();
  sim->run();
  EXPECT_GT(sim->metrics().counters()[sim::Counter::kLinkReplays], 0u);
  // Replays are extra pool deliveries of old traffic on top of the
  // originals. All traffic is broadcasts, so of every 4 sends exactly 3
  // cross the network (the 4th is the free self copy).
  const std::uint64_t cross = sim->metrics().messages_sent() * 3 / 4;
  EXPECT_EQ(sim->metrics().deliveries(),
            cross + sim->metrics().counters()[sim::Counter::kLinkReplays]);
}

TEST(LinkFaults, PerLinkOverrideAffectsOnlyThatLink) {
  NetworkProfile net;  // lossless except 0 -> 1
  net.overrides[{0, 1}] = LinkPlan::lossy(1.0);
  auto sim = make_sim<Counter>(4, net, 23);
  sim->start();
  sim->run();
  EXPECT_EQ(received(*sim, 1), 3);  // lost exactly 0's broadcast copy
  EXPECT_EQ(received(*sim, 0), 4);
  EXPECT_EQ(received(*sim, 2), 4);
  EXPECT_EQ(received(*sim, 3), 4);
  EXPECT_EQ(sim->metrics().counters()[sim::Counter::kLinkDrops], 1u);
}

TEST(LinkFaults, SameSeedSameChaos) {
  LinkPlan plan;
  plan.drop_p = 0.3;
  plan.dup_p = 0.3;
  plan.max_duplicates = 2;
  plan.replay_p = 0.2;
  auto run = [&](std::uint64_t seed) {
    auto sim = make_sim<Chatter>(5, NetworkProfile::uniform(plan), seed,
                                 /*rounds=*/5);
    sim->start();
    sim->run();
    return sim;
  };
  auto a = run(31);
  auto b = run(31);
  for (ProcessId i = 0; i < 5; ++i)
    EXPECT_EQ(received(*a, i), received(*b, i)) << i;
  EXPECT_EQ(a->metrics().deliveries(), b->metrics().deliveries());
  EXPECT_EQ(a->metrics().counters(), b->metrics().counters());
  EXPECT_EQ(a->metrics().messages_sent(), b->metrics().messages_sent());
}

// ------------------------------------------------ delivery-event timers --

/// Schedules one wakeup at start and records when it fired.
class Sleeper final : public Process {
 public:
  explicit Sleeper(std::uint64_t delay) : delay_(delay) {}
  void on_start(Context& ctx) override { ctx.schedule_wakeup(delay_); }
  void on_message(Context&, const Message&) override {}
  void on_wakeup(Context& ctx) override {
    ++wakeups;
    fired_at = ctx.now();
  }
  int wakeups = 0;
  std::uint64_t fired_at = 0;

 private:
  std::uint64_t delay_;
};

TEST(LinkFaults, WakeupFiresOnIdleNetwork) {
  // No messages at all: the runtime must advance "time" to the timer.
  SimConfig cfg;
  cfg.n = 1;
  Simulation sim(cfg);
  sim.add_process(std::make_unique<Sleeper>(25));
  sim.start();
  sim.run();
  auto& p = dynamic_cast<Sleeper&>(sim.process(0));
  EXPECT_EQ(p.wakeups, 1);
  EXPECT_GE(p.fired_at, 25u);
}

TEST(LinkFaults, WakeupDiesWithCrashedProcess) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.f = 1;
  Simulation sim(cfg);
  sim.add_process(std::make_unique<Sleeper>(10));
  sim.add_process(std::make_unique<Sleeper>(10));
  sim.start();
  sim.corrupt(0, FaultPlan::crash());
  sim.run();
  EXPECT_EQ(dynamic_cast<Sleeper&>(sim.process(0)).wakeups, 0);
  EXPECT_EQ(dynamic_cast<Sleeper&>(sim.process(1)).wakeups, 1);
}

/// Sends one normal message and one retransmission of it.
class Repeater final : public Process {
 public:
  void on_start(Context& ctx) override {
    ctx.send(1, "r", bytes_of("r"), 3);
    ctx.send_retransmission(1, "r", bytes_of("r"), 3);
  }
  void on_message(Context&, const Message&) override {}
};

TEST(LinkFaults, RetransmissionWordsAccountedSeparately) {
  SimConfig cfg;
  cfg.n = 2;
  Simulation sim(cfg);
  sim.add_process(std::make_unique<Repeater>());
  sim.add_process(std::make_unique<Repeater>());
  sim.start();
  sim.run();
  // Each process: one first-transmission (3 words) + one retransmission.
  EXPECT_EQ(sim.metrics().correct_words(), 2u * 3u);
  EXPECT_EQ(sim.metrics().counters()[sim::Counter::kRetransmits], 2u);
  EXPECT_EQ(sim.metrics().counters()[sim::Counter::kRetransmitWords], 2u * 3u);
  EXPECT_EQ(sim.metrics().total_words(), 2u * 6u);
}

}  // namespace
}  // namespace coincidence::sim
