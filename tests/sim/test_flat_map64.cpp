// FlatMap64 (ISSUE 4 satellite): erase-heavy churn — tombstone reuse in
// operator[], probe-sequence termination after rehash, and the basic
// insert/find/erase contract the simulator's hot-path indexes rely on.
#include "sim/flat_map64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace coincidence::sim {
namespace {

TEST(FlatMap64, EmptyMapAnswersWithoutSlots) {
  FlatMap64<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_FALSE(m.erase(7));
}

TEST(FlatMap64, InsertFindEraseRoundTrip) {
  FlatMap64<std::string> m;
  m[1] = "one";
  m.insert_or_assign(2, "two");
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), "one");
  EXPECT_EQ(*m.find(2), "two");
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_FALSE(m.erase(1));  // already gone
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap64, EraseReleasesValueAndTombstoneIsReusable) {
  FlatMap64<std::vector<int>> m;
  m[5] = std::vector<int>(1000, 7);
  ASSERT_TRUE(m.erase(5));
  // Reinsert the same key: operator[] must land on the tombstone (or a
  // fresh slot) and hand back a default-constructed value, not the stale
  // one.
  EXPECT_TRUE(m[5].empty());
  EXPECT_EQ(m.size(), 1u);
}

// Erase-heavy churn: monotonically increasing u64 keys, with every key
// erased shortly after insertion. Tombstones must be reclaimed (not
// accumulate until probes degrade or rehash thrashes) and lookups must
// stay exact throughout.
TEST(FlatMap64, EraseHeavyChurnStaysConsistent) {
  FlatMap64<std::uint64_t> m;
  const std::uint64_t kTotal = 20000;
  const std::uint64_t kWindow = 64;  // live keys at any moment
  for (std::uint64_t k = 0; k < kTotal; ++k) {
    m[k] = k * 3;
    if (k >= kWindow) ASSERT_TRUE(m.erase(k - kWindow)) << "key " << k;
    // Spot-check the live window edges every so often.
    if (k % 997 == 0 && k >= kWindow) {
      EXPECT_EQ(m.find(k - kWindow), nullptr);
      ASSERT_NE(m.find(k), nullptr);
      EXPECT_EQ(*m.find(k), k * 3);
      ASSERT_NE(m.find(k - kWindow + 1), nullptr);
      EXPECT_EQ(*m.find(k - kWindow + 1), (k - kWindow + 1) * 3);
    }
  }
  EXPECT_EQ(m.size(), kWindow);
  std::uint64_t seen = 0, sum = 0;
  m.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++seen;
    EXPECT_EQ(value, key * 3);
    sum += key;
  });
  EXPECT_EQ(seen, kWindow);
  // The survivors are exactly the last kWindow keys.
  std::uint64_t expect_sum = 0;
  for (std::uint64_t k = kTotal - kWindow; k < kTotal; ++k) expect_sum += k;
  EXPECT_EQ(sum, expect_sum);
}

// Adversarial-ish keys (same low bits) force long probe chains; erasing
// the middle of a chain must not hide keys past the tombstone.
TEST(FlatMap64, TombstoneInProbeChainDoesNotHideKeys) {
  FlatMap64<int> m;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 32; ++i) keys.push_back(i << 32);
  for (std::uint64_t k : keys) m[k] = static_cast<int>(k >> 32);
  for (std::size_t i = 0; i < keys.size(); i += 2) ASSERT_TRUE(m.erase(keys[i]));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(m.find(keys[i]), nullptr);
    } else {
      ASSERT_NE(m.find(keys[i]), nullptr) << "key index " << i;
      EXPECT_EQ(*m.find(keys[i]), static_cast<int>(i));
    }
  }
  // Reinsert the erased half; everything must be visible again.
  for (std::size_t i = 0; i < keys.size(); i += 2) m[keys[i]] = -1;
  EXPECT_EQ(m.size(), keys.size());
}

// Large-n scale check (ISSUE 8 satellite): one million live keys with
// churn on top. The load-factor invariant (live+tombstones <= half the
// slots) and tombstone compaction must hold at this size — lookups stay
// exact, the table never exceeds 4x the minimal power-of-two capacity,
// and a churn pass over the full population doesn't strand tombstones.
TEST(FlatMap64, MillionKeyChurnKeepsLoadBounded) {
  FlatMap64<std::uint64_t> m;
  const std::uint64_t kLive = 1'000'000;
  for (std::uint64_t k = 0; k < kLive; ++k) m[k * 2654435761u] = k;
  EXPECT_EQ(m.size(), kLive);
  // Power-of-two table, load <= 50%: 1M keys need >= 2^21 slots; growth
  // doubling can at most land one power above the minimum.
  EXPECT_GE(m.slot_count(), 1u << 21);
  EXPECT_LE(m.slot_count(), 1u << 23);
  // Churn: erase + reinsert every key once. Tombstone compaction must
  // absorb the dead slots instead of doubling the table again.
  const std::size_t cap_before = m.slot_count();
  for (std::uint64_t k = 0; k < kLive; ++k) {
    ASSERT_TRUE(m.erase(k * 2654435761u));
    m[k * 2654435761u + 1] = k;
  }
  EXPECT_EQ(m.size(), kLive);
  EXPECT_LE(m.slot_count(), cap_before * 2);
  for (std::uint64_t k = 0; k < kLive; k += 9973) {
    ASSERT_NE(m.find(k * 2654435761u + 1), nullptr);
    EXPECT_EQ(*m.find(k * 2654435761u + 1), k);
    EXPECT_EQ(m.find(k * 2654435761u), nullptr);
  }
}

// The SimConfig::expected_in_flight capacity hint: reserve() presizes so
// inserts up to the hint never rehash, preserves existing entries, and
// ignores shrinking requests.
TEST(FlatMap64, ReserveHintPrSizesAndPreservesEntries) {
  FlatMap64<int> m;
  m[7] = 70;
  m[8] = 80;
  m.reserve(100'000);
  const std::size_t cap = m.slot_count();
  EXPECT_GE(cap, 200'000u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70);
  for (std::uint64_t k = 0; k < 100'000; ++k) m[k + 1000] = 1;
  EXPECT_EQ(m.slot_count(), cap) << "reserve hint did not prevent rehash";
  m.reserve(10);  // shrink request: no-op
  EXPECT_EQ(m.slot_count(), cap);
}

TEST(FlatMap64, ClearThenReuse) {
  FlatMap64<int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m[k] = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(50), nullptr);
  m[50] = 2;
  EXPECT_EQ(*m.find(50), 2);
  EXPECT_EQ(m.size(), 1u);
}

}  // namespace
}  // namespace coincidence::sim
