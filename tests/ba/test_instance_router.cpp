// InstanceRouter: the one child router of every nested-instance host
// (log slots, multivalued-BA candidates, Session slots). Driven by hand
// with recording children, so each routing decision is visible.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ba/instance_router.h"
#include "common/rng.h"

namespace coincidence::ba {
namespace {

/// A harness Context: children driven by hand send nowhere.
class Quiet final : public sim::Context {
 public:
  sim::ProcessId self() const override { return 0; }
  std::size_t n() const override { return 1; }
  void send(sim::ProcessId, sim::Tag, SharedBytes, std::size_t) override {}
  void broadcast(sim::Tag, SharedBytes, std::size_t) override {}
  Rng& rng() override { return rng_; }
  std::uint64_t causal_depth() const override { return 0; }

 private:
  Rng rng_{1};
};

/// Appends "<k>:start" and "<k>:<tag>#<id>" to a shared log.
class Recorder {
 public:
  Recorder(std::size_t k, std::vector<std::string>& log) : k_(k), log_(log) {}
  void on_start(sim::Context&) {
    log_.push_back(std::to_string(k_) + ":start");
  }
  void on_message(sim::Context&, const sim::Message& m) {
    log_.push_back(std::to_string(k_) + ":" + m.tag.str() + "#" +
                   std::to_string(m.id));
  }

 private:
  std::size_t k_;
  std::vector<std::string>& log_;
};

sim::Message msg(const std::string& tag, std::uint64_t id) {
  sim::Message m;
  m.id = id;
  m.tag = sim::Tag(tag);
  return m;
}

TEST(InstanceRouter, RoutesByIndexAndDropsForeignTagsOnEverySighting) {
  Quiet ctx;
  std::vector<std::string> log;
  InstanceRouter<Recorder> router("slot", 2);
  Recorder& zero = router.activate(ctx, std::make_unique<Recorder>(0, log));
  Recorder& one = router.activate(ctx, std::make_unique<Recorder>(1, log));
  ASSERT_EQ(router.size(), 2u);
  EXPECT_EQ(&router[0], &zero);

  EXPECT_EQ(router.deliver(ctx, msg("slot1/c0/0/a1/init", 1)), &one);
  EXPECT_EQ(router.deliver(ctx, msg("slot0", 2)), &zero);
  EXPECT_EQ(router.deliver(ctx, msg("slot1/c0/0/a1/init", 3)), &one);

  // Foreign: not "<prefix><k>" with a canonical k, or k at the limit or
  // beyond it. The 2^32 and 2^64 tags alias index 0 under a 32-bit memo
  // or a wrapping parser; every sighting must drop them.
  const std::vector<std::string> foreign = {
      "slot2/c0/0/a1/init",         "slot4294967296/c0/0/a1/init",
      "slot18446744073709551616/x", "slot01/c0/0/a1/init",
      "slot0x/c0",                  "slot/c0/0/a1/init",
      "slot",                       "mvba/c0/0/a1/init"};
  for (int sighting = 0; sighting < 2; ++sighting)
    for (const std::string& tag : foreign)
      EXPECT_EQ(router.deliver(ctx, msg(tag, 9)), nullptr) << tag;

  EXPECT_EQ(log, (std::vector<std::string>{
                     "0:start", "1:start", "1:slot1/c0/0/a1/init#1",
                     "0:slot0#2", "1:slot1/c0/0/a1/init#3"}));
}

TEST(InstanceRouter, HoldsTrafficForInactiveChildrenAndReplaysInArrivalOrder) {
  Quiet ctx;
  std::vector<std::string> log;
  InstanceRouter<Recorder> router("cand/c", 3);
  EXPECT_EQ(router.deliver(ctx, msg("cand/c2/0/a1/init", 1)), nullptr);
  EXPECT_EQ(router.deliver(ctx, msg("cand/c1/0/a1/init", 2)), nullptr);
  EXPECT_EQ(router.deliver(ctx, msg("cand/c3/0/a1/init", 3)), nullptr);
  EXPECT_EQ(router.deliver(ctx, msg("cand/c2/0/coin/first", 4)), nullptr);
  EXPECT_EQ(router.deliver(ctx, msg("cand/c1/1/a1/echo", 5)), nullptr);

  router.activate(ctx, std::make_unique<Recorder>(0, log));
  EXPECT_EQ(log, (std::vector<std::string>{"0:start"}));
  router.activate(ctx, std::make_unique<Recorder>(1, log));
  Recorder& two = router.activate(ctx, std::make_unique<Recorder>(2, log));
  // Child 3 is past the limit: its message was dropped, never held.
  EXPECT_EQ(log, (std::vector<std::string>{
                     "0:start", "1:start", "1:cand/c1/0/a1/init#2",
                     "1:cand/c1/1/a1/echo#5", "2:start",
                     "2:cand/c2/0/a1/init#1", "2:cand/c2/0/coin/first#4"}));

  // Once active, a child takes its traffic directly.
  EXPECT_EQ(router.deliver(ctx, msg("cand/c2/1/a1/init", 6)), &two);
  EXPECT_EQ(log.back(), "2:cand/c2/1/a1/init#6");
}

TEST(InstanceRouter, AddedChildrenAreNotStarted) {
  // Hosts whose children all exist up front (Session) add them and start
  // them in their own order.
  Quiet ctx;
  std::vector<std::string> log;
  InstanceRouter<Recorder> router("slot", 2);
  router.add(std::make_unique<Recorder>(0, log));
  router.add(std::make_unique<Recorder>(1, log));
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(router.deliver(ctx, msg("slot1/x", 1)), &router[1]);
  EXPECT_EQ(log, (std::vector<std::string>{"1:slot1/x#1"}));
}

}  // namespace
}  // namespace coincidence::ba
