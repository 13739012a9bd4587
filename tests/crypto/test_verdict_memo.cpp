// crypto::VerdictMemo: only an exact byte compare of every key field
// may produce a hit. Fingerprints only pick the probe run, so forced
// fingerprint collisions must still resolve by content; negative
// verdicts are cached like positive ones; and the memo owns its keys, so
// a verdict outlives the caller's buffer (ASan builds check the reads).
// Under a WriteSink stores wait for the drain, then match serial stores.
#include "crypto/verdict_memo.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/write_sink.h"

namespace coincidence::crypto {
namespace {

TEST(VerdictMemo, ForcedFingerprintCollisionsResolveByContent) {
  VerdictMemo memo;
  const Bytes a = bytes_of("honest");
  const Bytes b = bytes_of("honesT");  // one byte away
  constexpr std::uint64_t kFp = 42;
  memo.store(kFp, {a}, true);
  EXPECT_FALSE(memo.lookup(kFp, {b}).has_value());
  memo.store(kFp, {b}, false);
  ASSERT_TRUE(memo.lookup(kFp, {a}).has_value());
  EXPECT_TRUE(*memo.lookup(kFp, {a}));
  ASSERT_TRUE(memo.lookup(kFp, {b}).has_value());
  EXPECT_FALSE(*memo.lookup(kFp, {b}));
  EXPECT_EQ(memo.size(), 2u);
}

TEST(VerdictMemo, FieldBoundariesAndCountsAreKeyed) {
  VerdictMemo memo;
  const Bytes ab = bytes_of("ab"), c = bytes_of("c");
  const Bytes a = bytes_of("a"), bc = bytes_of("bc");
  memo.store(7, {ab, c}, true);
  EXPECT_FALSE(memo.lookup(7, {a, bc}).has_value());
  EXPECT_FALSE(memo.lookup(7, {ab, c, Bytes{}}).has_value());
  EXPECT_FALSE(memo.lookup(7, {concat({ab, c})}).has_value());
  EXPECT_FALSE(memo.lookup(7, {VerdictMemo::IntField(1), c}).has_value());
  EXPECT_TRUE(memo.lookup(7, {ab, c}).value_or(false));
  EXPECT_NE(VerdictMemo::fingerprint({ab, c}),
            VerdictMemo::fingerprint({a, bc}));
}

TEST(VerdictMemo, IntFieldsCompareByValue) {
  VerdictMemo memo;
  memo.store(1, {VerdictMemo::IntField(3)}, true);
  EXPECT_TRUE(memo.lookup(1, {VerdictMemo::IntField(3)}).value_or(false));
  EXPECT_FALSE(memo.lookup(1, {VerdictMemo::IntField(4)}).has_value());
  EXPECT_FALSE(
      memo.lookup(1, {VerdictMemo::IntField(3ULL << 32)}).has_value());
}

TEST(VerdictMemo, NegativeVerdictsAreCachedAndCounted) {
  VerdictMemo memo;
  const Bytes forged = bytes_of("forged");
  const std::uint64_t fp = VerdictMemo::fingerprint({forged});
  EXPECT_FALSE(memo.lookup(fp, {forged}).has_value());
  memo.store(fp, {forged}, false);
  for (int i = 0; i < 3; ++i) {
    const auto hit = memo.lookup(fp, {forged});
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(*hit);
  }
  EXPECT_EQ(memo.hits(), 3u);
  EXPECT_EQ(memo.misses(), 1u);
  memo.store(fp, {forged}, true);  // a re-store overwrites, no new row
  EXPECT_TRUE(*memo.lookup(fp, {forged}));
  EXPECT_EQ(memo.size(), 1u);
}

TEST(VerdictMemo, VerdictOutlivesTheCallersBuffer) {
  VerdictMemo memo;
  auto buffer = std::make_unique<Bytes>(bytes_of("a payload that is freed"));
  const std::uint64_t fp = VerdictMemo::fingerprint({*buffer});
  memo.store(fp, {*buffer}, true);
  buffer.reset();  // a memo holding views would now read freed memory
  const Bytes copy = bytes_of("a payload that is freed");
  EXPECT_TRUE(memo.lookup(fp, {copy}).value_or(false));
}

TEST(VerdictMemo, StoresUnderASinkWaitForTheDrain) {
  // The same calls on two memos, one under a sink (a sharded handler
  // phase) and one without (the legacy loop).
  const Bytes honest = bytes_of("honest");
  const Bytes forged = bytes_of("forged");
  auto calls = [&](VerdictMemo& memo) {
    int checks = 0;
    for (int round = 0; round < 2; ++round) {
      memo.verdict(1, {honest}, [&] { return ++checks, true; });
      memo.verdict(1, {forged}, [&] { return ++checks, false; });
    }
    return checks;
  };
  VerdictMemo serial;
  EXPECT_EQ(calls(serial), 2);  // the second round hits

  VerdictMemo deferred;
  WriteSink sink;
  {
    const WriteSink::Scope scope(sink);
    EXPECT_EQ(calls(deferred), 4);  // no store is visible yet
    EXPECT_EQ(deferred.size(), 0u);
    EXPECT_EQ(deferred.hits(), 0u);
  }
  sink.drain();
  EXPECT_EQ(deferred.size(), serial.size());  // repeats collapse
  EXPECT_EQ(deferred.size(), 2u);
  EXPECT_EQ(deferred.lookup(1, {honest}), std::optional<bool>(true));
  EXPECT_EQ(deferred.lookup(1, {forged}), std::optional<bool>(false));
  sink.drain();  // drained writes do not replay
  EXPECT_EQ(deferred.size(), 2u);

  // Out of the scope the sink is gone and stores apply at once.
  const Bytes late = bytes_of("late");
  deferred.store(2, {late}, true);
  EXPECT_EQ(deferred.lookup(2, {late}), std::optional<bool>(true));
}

TEST(VerdictMemo, GrowthKeepsEveryVerdict) {
  // Many keys over few fingerprints: long probe runs and several
  // rehashes, every verdict still found by content.
  VerdictMemo memo;
  for (std::uint64_t i = 0; i < 2000; ++i)
    memo.store(i % 13, {VerdictMemo::IntField(i), bytes_of("k")}, i % 3 == 0);
  EXPECT_EQ(memo.size(), 2000u);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const auto hit =
        memo.lookup(i % 13, {VerdictMemo::IntField(i), bytes_of("k")});
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(*hit, i % 3 == 0) << i;
  }
  EXPECT_FALSE(
      memo.lookup(5, {VerdictMemo::IntField(5000), bytes_of("k")}).has_value());
}

}  // namespace
}  // namespace coincidence::crypto
