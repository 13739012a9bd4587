// The parallel experiment driver's contract: fanning seeded runs over a
// thread pool produces results BYTE-IDENTICAL to a serial loop over the
// same options — every report field, including the words_by_tag
// breakdown — because each run is self-contained and results merge in
// input order, not completion order.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "core/runner.h"

namespace coincidence::core {
namespace {

void expect_reports_equal(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.all_correct_decided, b.all_correct_decided);
  EXPECT_EQ(a.agreement, b.agreement);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.max_decided_round, b.max_decided_round);
  EXPECT_EQ(a.correct_words, b.correct_words);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.words_by_tag, b.words_by_tag);
  EXPECT_EQ(a.faulty, b.faulty);
  EXPECT_EQ(a.protocol_f, b.protocol_f);
  EXPECT_EQ(a.counters, b.counters);
}

std::vector<RunOptions> mixed_workload() {
  std::vector<RunOptions> opts;
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    RunOptions o;
    o.protocol = seed % 2 ? Protocol::kBracha : Protocol::kBenOr;
    o.n = o.protocol == Protocol::kBenOr ? 6 : 4;
    o.seed = seed;
    o.adversary =
        seed % 3 ? AdversaryKind::kRandom : AdversaryKind::kHeavyTail;
    if (seed % 4 == 0) o.silent = 1;
    o.max_rounds = 30;
    o.inputs.assign(o.n, seed % 2 ? ba::kOne : ba::kZero);
    opts.push_back(o);
  }
  return opts;
}

TEST(ParallelDriver, MatchesSerialExecutionExactly) {
  std::vector<RunOptions> opts = mixed_workload();

  std::vector<RunReport> serial;
  serial.reserve(opts.size());
  for (const RunOptions& o : opts) serial.push_back(run_agreement(o));

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::vector<RunReport> par = run_agreements_parallel(pool, opts);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " run=" + std::to_string(i));
      expect_reports_equal(par[i], serial[i]);
    }
  }
}

TEST(ParallelDriver, PoolIsReusableAcrossJobs) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  for (int round = 0; round < 3; ++round) {
    std::vector<int> out =
        parallel_map(pool, 100, [&](std::size_t i) {
          return static_cast<int>(i) * (round + 1);
        });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], static_cast<int>(i) * (round + 1));
  }
}

TEST(ParallelDriver, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each_index(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelDriver, RethrowsLowestFailingIndex) {
  ThreadPool pool(4);
  for (int round = 0; round < 2; ++round) {
    try {
      pool.for_each_index(64, [&](std::size_t i) {
        if (i % 7 == 3) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      // Lowest failing index (3) wins deterministically, regardless of
      // which worker hit its exception first.
      EXPECT_STREQ(e.what(), "3");
    }
    // The pool must remain usable after a failed job.
    std::vector<int> ok = parallel_map(
        pool, 8, [](std::size_t i) { return static_cast<int>(i); });
    EXPECT_EQ(ok.back(), 7);
  }
}

TEST(ParallelDriver, ZeroAndSingleItemJobs) {
  ThreadPool pool(2);
  pool.for_each_index(0, [](std::size_t) { FAIL() << "must not run"; });
  std::vector<int> one = parallel_map(pool, 1, [](std::size_t) { return 42; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 42);
}

TEST(ParallelDriver, DefaultThreadCountIsPositive) {
  EXPECT_GE(default_thread_count(), 1u);
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

}  // namespace
}  // namespace coincidence::core
