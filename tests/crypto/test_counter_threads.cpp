// The run-wide verification counters under concurrent handler threads.
//
// On the sharded engine every handler thread looks up the same
// VerdictMemo and checks signatures through the same BatchVerifier, and
// each of those calls counts itself on a StripedCounter. Four threads
// here make 10^5 calls each, the way shard handlers do (reads of the
// shared table, stores queued on the thread's own WriteSink), and every
// total must come out exact. Run under TSan, this also checks that the
// counting writes race with nothing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "coin/verify_queue.h"
#include "common/striped_counter.h"
#include "common/write_sink.h"
#include "crypto/fast_vrf.h"
#include "crypto/key_registry.h"
#include "crypto/signer.h"
#include "crypto/verdict_memo.h"

namespace coincidence {
namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kCalls = 100'000;

/// Runs body(t, sink) on kThreads threads, each with its own WriteSink
/// installed, then drains the sinks in thread order.
template <typename Body>
void on_threads(Body body) {
  std::vector<std::unique_ptr<WriteSink>> sinks;
  for (std::size_t t = 0; t < kThreads; ++t)
    sinks.push_back(std::make_unique<WriteSink>());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const WriteSink::Scope deferred(*sinks[t]);
      body(t);
    });
  }
  for (std::thread& th : threads) th.join();
  for (auto& sink : sinks) sink->drain();
}

TEST(CounterThreads, StripedCounterSumsEveryThreadsAdds) {
  StripedCounter c;
  EXPECT_EQ(c.value(), 0u);
  ++c;
  c += 4;
  EXPECT_EQ(c.value(), 5u);
  on_threads([&](std::size_t t) {
    for (std::size_t i = 0; i < kCalls; ++i) c.add(t + 1);
  });
  EXPECT_EQ(c.value(), 5u + kCalls * (1 + 2 + 3 + 4));
}

// Keys 0..63 are stored before the threads start; keys 64..127 miss, and
// their stores wait in the threads' sinks, so every lookup's outcome is
// known in advance.
TEST(CounterThreads, FourThreadsCountEveryMemoLookupExactly) {
  constexpr std::uint64_t kKeys = 128, kStored = 64;
  crypto::VerdictMemo memo;
  auto key_fp = [](std::uint64_t k) {
    return crypto::VerdictMemo::fingerprint(
        {crypto::VerdictMemo::IntField(k)});
  };
  for (std::uint64_t k = 0; k < kStored; ++k)
    memo.store(key_fp(k), {crypto::VerdictMemo::IntField(k)}, k % 3 != 0);
  std::uint64_t expect_hits = 0;
  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < kCalls; ++i)
      if ((7 * t + i) % kKeys < kStored) ++expect_hits;

  on_threads([&](std::size_t t) {
    for (std::size_t i = 0; i < kCalls; ++i) {
      const std::uint64_t k = (7 * t + i) % kKeys;
      const bool ok =
          memo.verdict(key_fp(k), {crypto::VerdictMemo::IntField(k)},
                       [&] { return k % 3 != 0; });
      ASSERT_EQ(ok, k % 3 != 0);
    }
  });
  EXPECT_EQ(memo.hits(), expect_hits);
  EXPECT_EQ(memo.misses(), kThreads * kCalls - expect_hits);
  EXPECT_EQ(memo.hits() + memo.misses(), kThreads * kCalls);
  EXPECT_EQ(memo.size(), kKeys);  // the drained stores landed
}

// 48 signatures are checked once before the threads start, so they hit;
// 8 fresh valid and 8 tampered ones miss on every thread.
TEST(CounterThreads, FourThreadsCountEverySignatureCheckExactly) {
  auto registry = crypto::KeyRegistry::create_for(8, 77);
  auto signer = std::make_shared<crypto::Signer>(registry);
  coin::BatchVerifier batcher(coin::BatchVerifier::Config{
      std::make_shared<crypto::FastVrf>(registry), nullptr, signer});

  constexpr std::size_t kWarm = 48, kFresh = 8, kBad = 8;
  constexpr std::size_t kEntries = kWarm + kFresh + kBad;
  std::vector<Bytes> msgs, sigs;
  for (std::size_t e = 0; e < kEntries; ++e) {
    msgs.push_back(bytes_of("echo|" + std::to_string(e)));
    sigs.push_back(signer->sign(e % 8, msgs.back()));
    if (e >= kWarm + kFresh) sigs.back()[3] ^= 1;
  }
  auto entry = [&](std::size_t e) {
    return crypto::SigBatchEntry{static_cast<crypto::ProcessId>(e % 8),
                                 BytesView(msgs[e]), BytesView(sigs[e])};
  };
  for (std::size_t e = 0; e < kWarm; ++e)
    ASSERT_TRUE(batcher.check_signature(entry(e)));

  std::uint64_t expect_hits = 0, expect_rejects = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kCalls; ++i) {
      const std::size_t e = (5 * t + i) % kEntries;
      if (e < kWarm) ++expect_hits;
      if (e >= kWarm + kFresh) ++expect_rejects;
    }
  }

  on_threads([&](std::size_t t) {
    for (std::size_t i = 0; i < kCalls; ++i) {
      const std::size_t e = (5 * t + i) % kEntries;
      bool memo_hit = false;
      const bool ok = batcher.check_signature(entry(e), &memo_hit);
      ASSERT_EQ(ok, e < kWarm + kFresh);
      ASSERT_EQ(memo_hit, e < kWarm);
    }
  });
  const std::uint64_t calls = kThreads * kCalls;
  EXPECT_EQ(batcher.sig_checks(), kWarm + calls);
  EXPECT_EQ(batcher.sig_rejects(), expect_rejects);
  EXPECT_EQ(batcher.sig_memo().hits(), expect_hits);
  EXPECT_EQ(batcher.sig_memo().misses(), kWarm + calls - expect_hits);
  EXPECT_EQ(batcher.sig_memo().size(), kEntries);
}

}  // namespace
}  // namespace coincidence
