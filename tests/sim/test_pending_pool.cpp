#include "sim/pending_pool.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/errors.h"

namespace coincidence::sim {
namespace {

Message mk(std::uint64_t id, ProcessId from, ProcessId to,
           std::uint64_t seq) {
  Message m;
  m.id = id;
  m.from = from;
  m.to = to;
  m.tag = "t";
  m.send_seq = seq;
  return m;
}

TEST(PendingPool, PushTakeRoundTrip) {
  PendingPool pool;
  pool.push(mk(1, 0, 1, 0), 0);
  EXPECT_EQ(pool.size(), 1u);
  Message m = pool.take(0);
  EXPECT_EQ(m.id, 1u);
  EXPECT_TRUE(pool.empty());
}

TEST(PendingPool, OldestTracksEnqueueTick) {
  PendingPool pool;
  pool.push(mk(1, 0, 1, 0), 5);
  pool.push(mk(2, 0, 1, 1), 3);  // older tick
  pool.push(mk(3, 0, 1, 2), 9);
  EXPECT_EQ(pool.enqueue_tick(pool.oldest_index()), 3u);
}

TEST(PendingPool, OldestSurvivesSwapRemove) {
  PendingPool pool;
  for (std::uint64_t i = 0; i < 10; ++i)
    pool.push(mk(i + 1, 0, 1, i), i);
  // Remove a few from the middle; oldest must stay correct throughout.
  (void)pool.take(3);
  (void)pool.take(0);
  std::size_t oldest = pool.oldest_index();
  std::uint64_t min_tick = ~0ULL;
  for (std::size_t i = 0; i < pool.size(); ++i)
    min_tick = std::min(min_tick, pool.enqueue_tick(i));
  EXPECT_EQ(pool.enqueue_tick(oldest), min_tick);
}

TEST(PendingPool, OldestAfterTakingOldestRepeatedly) {
  PendingPool pool;
  for (std::uint64_t i = 0; i < 5; ++i) pool.push(mk(i + 1, 0, 1, i), i);
  for (std::uint64_t expect = 0; expect < 5; ++expect) {
    std::size_t idx = pool.oldest_index();
    EXPECT_EQ(pool.enqueue_tick(idx), expect);
    (void)pool.take(idx);
  }
  EXPECT_TRUE(pool.empty());
}

TEST(PendingPool, MetadataAccessors) {
  PendingPool pool;
  Message m = mk(7, 3, 4, 11);
  m.words = 5;
  pool.push(std::move(m), 2);
  EXPECT_EQ(pool.from(0), 3u);
  EXPECT_EQ(pool.to(0), 4u);
  EXPECT_EQ(pool.tag(0), "t");
  EXPECT_EQ(pool.words(0), 5u);
  EXPECT_EQ(pool.send_seq(0), 11u);
  EXPECT_EQ(pool.enqueue_tick(0), 2u);
}

TEST(PendingPool, TakeBadIndexThrows) {
  PendingPool pool;
  EXPECT_THROW(pool.take(0), PreconditionError);
  EXPECT_THROW(pool.oldest_index(), PreconditionError);
  EXPECT_THROW(pool.oldest_tick_lower_bound(), PreconditionError);
}

TEST(PendingPool, CompactionBoundsStaleEntries) {
  // Churn a small live set through tens of thousands of push/take pairs:
  // every take leaves a dead order entry behind, so without compaction
  // the order array would end ~20000 entries deep. The rebuild threshold
  // caps the dead entries at 2*(live+8).
  PendingPool pool;
  std::size_t max_stale = 0;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    pool.push(mk(i + 1, 0, 1, i), i);
    if (pool.size() > 4) (void)pool.take(pool.oldest_index());
    max_stale = std::max(max_stale, pool.stale_entries());
    ASSERT_LE(pool.stale_entries(), 2 * (pool.size() + 8) + 3);
  }
  EXPECT_LT(max_stale, 64u);

  // Rebuilds must not corrupt the oldest-message order.
  std::uint64_t min_tick = ~0ULL;
  for (std::size_t i = 0; i < pool.size(); ++i)
    min_tick = std::min(min_tick, pool.enqueue_tick(i));
  EXPECT_EQ(pool.enqueue_tick(pool.oldest_index()), min_tick);
}

// Differential check against a brute-force model: a plain array with the
// same swap-remove index space, whose oldest message is found by a full
// scan for the minimum (tick, id). The op mix reproduces the simulator's
// out-of-order pushes: held messages re-pushed with their old ids at a
// partition heal, network copies (later ids) routed before their
// original, and the occasional push with a smaller tick.
TEST(PendingPool, MatchesBruteForceModel) {
  struct Ref {
    std::uint64_t tick, id, seq;
    ProcessId from, to;
    std::size_t words;
    Tag tag;
  };
  const Tag tags[] = {"a", "b", "c"};
  std::mt19937_64 rng(20200214);
  PendingPool pool;
  std::vector<Ref> model;
  std::vector<std::uint64_t> held;  // ids pushed later, at a heal
  std::uint64_t clock = 0;
  std::uint64_t next_id = 1;

  auto push = [&](std::uint64_t id, std::uint64_t tick) {
    Ref r{tick, id, rng() % 1000, static_cast<ProcessId>(rng() % 7),
          static_cast<ProcessId>(rng() % 7),
          static_cast<std::size_t>(rng() % 50), tags[rng() % 3]};
    Message m = mk(r.id, r.from, r.to, r.seq);
    m.words = r.words;
    m.tag = r.tag;
    pool.push(std::move(m), tick);
    model.push_back(r);
  };
  auto take = [&](std::size_t i) {
    Message m = pool.take(i);
    ASSERT_EQ(m.id, model[i].id);
    model[i] = model.back();
    model.pop_back();
    // Mostly one take per tick; a shared tick leaves dead entries among
    // the live ones that later same-tick pushes must pass.
    if (rng() % 4 != 0) ++clock;
  };

  for (int op = 0; op < 100000; ++op) {
    // Pushes and takes are about even; a cap keeps the scans short.
    const std::uint64_t r = model.size() > 256 ? 99 : rng() % 100;
    if (r < 40) {
      push(next_id++, clock);
    } else if (r < 43) {
      // Storm or link duplicate: the copies take ids after the
      // original's but enter the pool ahead of it, in the same tick.
      const std::uint64_t original = next_id++;
      const std::uint64_t copies = 1 + rng() % 3;
      for (std::uint64_t c = 0; c < copies; ++c) push(next_id++, clock);
      push(original, clock);
    } else if (r < 47) {
      // Partitioned: the message keeps its id while it is held.
      held.push_back(next_id++);
    } else if (r < 48) {
      // Heal: every held message enters the pool now, oldest id first,
      // among the ids already pushed in this tick.
      for (std::uint64_t id : held) push(id, clock);
      held.clear();
    } else if (r < 49) {
      push(next_id++, clock - std::min<std::uint64_t>(clock, rng() % 40));
    } else if (!model.empty()) {
      if (r < 80) {
        take(static_cast<std::size_t>(rng() % model.size()));
      } else {
        take(pool.oldest_index());
      }
    }
    if (testing::Test::HasFatalFailure()) return;

    ASSERT_EQ(pool.size(), model.size());
    ASSERT_LE(pool.stale_entries(), 2 * (pool.size() + 8));
    if (model.empty()) continue;
    std::size_t oldest = 0;
    for (std::size_t i = 0; i < model.size(); ++i) {
      const Ref& a = model[i];
      const Ref& b = model[oldest];
      if (a.tick < b.tick || (a.tick == b.tick && a.id < b.id)) oldest = i;
      ASSERT_EQ(pool.enqueue_tick(i), a.tick) << "op " << op;
      ASSERT_EQ(pool.from(i), a.from);
      ASSERT_EQ(pool.to(i), a.to);
      ASSERT_EQ(pool.words(i), a.words);
      ASSERT_EQ(pool.send_seq(i), a.seq);
      ASSERT_EQ(pool.tag_id(i), a.tag.id());
      ASSERT_EQ(pool.tag(i), a.tag.str());
    }
    ASSERT_LE(pool.oldest_tick_lower_bound(), model[oldest].tick);
    ASSERT_EQ(pool.oldest_index(), oldest) << "op " << op;
  }
}

}  // namespace
}  // namespace coincidence::sim
