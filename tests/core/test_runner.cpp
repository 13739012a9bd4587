#include "core/runner.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/errors.h"
#include "core/coin_runner.h"

namespace coincidence::core {
namespace {

using sim::Counter;

TEST(Env, MakeRelaxedWiresEverything) {
  Env env = Env::make_relaxed(40, 9);
  EXPECT_EQ(env.n(), 40u);
  EXPECT_TRUE(env.registry && env.vrf && env.sampler && env.signer);
  EXPECT_GT(env.params.W, env.params.B);
}

TEST(Env, MakeAutoEnforcesWindows) {
  // Below the feasibility threshold the windows are empty.
  EXPECT_THROW(Env::make_auto(3, 1), ConfigError);
  Env env = Env::make_auto(committee::min_feasible_n(), 1);
  // At the midpoint epsilon, f = (1/3 - eps) n may round to zero for tiny
  // n; the point is that construction succeeds with valid thresholds.
  EXPECT_GT(env.params.W, env.params.B);
}

TEST(Env, DeterministicKeys) {
  Env a = Env::make_relaxed(16, 5);
  Env b = Env::make_relaxed(16, 5);
  EXPECT_EQ(a.registry->pk_of(3), b.registry->pk_of(3));
}

TEST(ProtocolRegistry, NamesRoundTrip) {
  for (Protocol p : all_protocols()) {
    auto back = protocol_from_name(protocol_name(p));
    ASSERT_TRUE(back.has_value()) << protocol_name(p);
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(protocol_from_name("nonsense").has_value());
}

TEST(AdversaryRegistry, NamesRoundTrip) {
  const auto last = static_cast<int>(AdversaryKind::kAdaptiveCorruption);
  for (int k = 0; k <= last; ++k) {
    const auto a = static_cast<AdversaryKind>(k);
    auto back = adversary_from_name(adversary_name(a));
    ASSERT_TRUE(back.has_value()) << adversary_name(a);
    EXPECT_EQ(*back, a);
  }
  EXPECT_FALSE(adversary_from_name("nonsense").has_value());
  EXPECT_FALSE(adversary_from_name("").has_value());
  EXPECT_FALSE(adversary_from_name("unknown").has_value());
}

TEST(Runner, EveryProtocolDecidesUnanimousInput) {
  for (Protocol p : all_protocols()) {
    RunOptions o;
    o.protocol = p;
    o.n = std::max<std::size_t>(min_n_for(p), p == Protocol::kBaWhp ? 48 : 10);
    o.seed = 77;
    o.inputs.assign(o.n, ba::kOne);
    RunReport r = run_agreement(o);
    EXPECT_TRUE(r.all_correct_decided) << protocol_name(p);
    ASSERT_TRUE(r.decision.has_value()) << protocol_name(p);
    EXPECT_EQ(*r.decision, 1) << protocol_name(p);
    EXPECT_TRUE(r.agreement) << protocol_name(p);
    EXPECT_GT(r.correct_words, 0u) << protocol_name(p);
  }
}

TEST(Runner, FaultMixAppliedToHighIds) {
  RunOptions o;
  o.protocol = Protocol::kMmrSharedCoin;
  o.n = 10;
  o.crash = 1;
  o.silent = 1;
  o.junk = 1;
  o.seed = 5;
  o.inputs.assign(10, ba::kZero);
  RunReport r = run_agreement(o);
  EXPECT_EQ(r.faulty, 3u);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_EQ(*r.decision, 0);
}

TEST(Runner, RejectsOverBudgetFaults) {
  RunOptions o;
  o.protocol = Protocol::kBenOr;  // f = (n-1)/5 = 1 at n = 10
  o.n = 10;
  o.crash = 2;
  EXPECT_THROW(run_agreement(o), PreconditionError);
}

TEST(Runner, RejectsTooSmallN) {
  RunOptions o;
  o.protocol = Protocol::kBaWhp;
  o.n = 8;
  EXPECT_THROW(run_agreement(o), PreconditionError);
}

TEST(Runner, AdversaryKindsAllComplete) {
  for (AdversaryKind a :
       {AdversaryKind::kRandom, AdversaryKind::kFifo,
        AdversaryKind::kDelaySenders, AdversaryKind::kSplit,
        AdversaryKind::kHeavyTail}) {
    RunOptions o;
    o.protocol = Protocol::kMmrSharedCoin;
    o.n = 10;
    o.seed = 31;
    o.adversary = a;
    o.inputs.assign(10, ba::kOne);
    RunReport r = run_agreement(o);
    EXPECT_TRUE(r.all_correct_decided) << adversary_name(a);
    EXPECT_EQ(*r.decision, 1) << adversary_name(a);
  }
}

TEST(Runner, WordsByTagBucketsPopulated) {
  RunOptions o;
  o.protocol = Protocol::kBaWhp;
  o.n = 48;
  o.inputs.assign(48, ba::kZero);
  // Retry across seeds: individual small-n runs may hit the whp-failure
  // tail; we only need one decided run to audit the metric buckets.
  RunReport r;
  for (std::uint64_t seed = 1; seed <= 5 && !r.all_correct_decided; ++seed) {
    o.seed = seed;
    r = run_agreement(o);
  }
  ASSERT_TRUE(r.all_correct_decided);
  EXPECT_FALSE(r.words_by_tag.empty());
  std::uint64_t sum = 0;
  for (const auto& [tag, words] : r.words_by_tag) sum += words;
  EXPECT_EQ(sum, r.correct_words);
}

// ISSUE 4 tentpole: telemetry attaches through RunInstruments without
// changing the run, and the per-phase word view partitions the paper's
// word-complexity measure exactly — this is the identity tools/run_report
// asserts on every invocation.
TEST(Runner, DeferredVerificationIsBitIdenticalToInline) {
  // The tentpole equivalence: routing share/election proofs through the
  // deferred batch-verification queues must not change ANY protocol-
  // visible outcome — decision, rounds, words, messages, duration — for
  // any VRF-backed protocol, fault mix or adversary. Only the verify_*
  // telemetry counters may (and for deferred runs, must) differ.
  for (Protocol p : {Protocol::kBaWhp, Protocol::kMmrWhpCoin,
                     Protocol::kMmrSharedCoin}) {
    for (std::uint64_t seed : {1ULL, 42ULL}) {
      RunOptions o;
      o.protocol = p;
      o.n = std::max<std::size_t>(min_n_for(p), 40);
      o.seed = seed;
      o.inputs.assign(o.n, seed % 2 ? ba::kOne : ba::kZero);
      o.inputs[1] = ba::kOne;
      o.junk = 1;
      o.silent = 1;

      o.defer_verify = false;
      RunReport inline_r = run_agreement(o);
      o.defer_verify = true;
      RunReport deferred_r = run_agreement(o);

      SCOPED_TRACE(std::string(protocol_name(p)) + " seed " +
                   std::to_string(seed));
      EXPECT_EQ(inline_r.all_correct_decided, deferred_r.all_correct_decided);
      EXPECT_EQ(inline_r.decision, deferred_r.decision);
      EXPECT_EQ(inline_r.max_decided_round, deferred_r.max_decided_round);
      EXPECT_EQ(inline_r.correct_words, deferred_r.correct_words);
      EXPECT_EQ(inline_r.messages, deferred_r.messages);
      EXPECT_EQ(inline_r.duration, deferred_r.duration);
      EXPECT_EQ(inline_r.words_by_tag, deferred_r.words_by_tag);
      // The deferred run actually went through the batch plane...
      EXPECT_GT(deferred_r.counters[Counter::kVerifyFlushes], 0u);
      EXPECT_GT(deferred_r.counters[Counter::kVerifyShares], 0u);
      // ...and the inline run never did.
      EXPECT_EQ(inline_r.counters[Counter::kVerifyFlushes], 0u);
      EXPECT_EQ(inline_r.counters[Counter::kVerifyShares], 0u);
    }
  }
}

TEST(Runner, DeferredVerificationCountsJunkRejects) {
  // Junk-fault processes broadcast garbage into coin tags; the deferred
  // path must discard exactly those shares and count them.
  RunOptions o;
  o.protocol = Protocol::kMmrSharedCoin;
  o.n = 12;
  o.seed = 23;
  o.inputs.assign(o.n, ba::kZero);
  o.inputs[0] = ba::kOne;
  o.junk = 2;
  RunReport r = run_agreement(o);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_GT(r.counters[Counter::kVerifyShares], 0u);
}

TEST(Runner, CodingCountersFollowTheCodeShape) {
  // Erasure-coded Bracha: every encode (source dispersal or the
  // deliver-time re-encode check) yields n fragments, and every decode
  // reads exactly k = f+1 of them. No dispersal here is poisoned.
  RunOptions o;
  o.protocol = Protocol::kBracha;
  o.rbc = ba::RbcBackend::kEc;
  o.n = 16;
  o.seed = 7;
  o.inputs.assign(o.n, ba::kZero);
  for (std::size_t i = 0; i < o.n / 2; ++i) o.inputs[i] = ba::kOne;
  const RunReport r = run_agreement(o);
  ASSERT_TRUE(r.all_correct_decided);
  const sim::Counters& c = r.counters;
  ASSERT_GT(c[Counter::kRbcEncodes], 0u);
  ASSERT_GT(c[Counter::kRbcDecodes], 0u);
  EXPECT_EQ(c[Counter::kRbcFragmentsEncoded], o.n * c[Counter::kRbcEncodes]);
  EXPECT_EQ(c[Counter::kRbcFragmentsDecoded],
            (r.protocol_f + 1) * c[Counter::kRbcDecodes]);
  EXPECT_EQ(c[Counter::kRbcDecodeFailures], 0u);

  // net::ReliableProcess forwards the coding counts of the process it
  // wraps: on a reliable network the same run does the same coding work.
  o.reliable_channel = true;
  const RunReport wrapped = run_agreement(o);
  for (Counter k : {Counter::kRbcEncodes, Counter::kRbcFragmentsEncoded,
                    Counter::kRbcDecodes, Counter::kRbcFragmentsDecoded,
                    Counter::kRbcDecodeFailures})
    EXPECT_EQ(wrapped.counters[k], c[k]);
}

TEST(Runner, ShardedRunsShareOneCryptoStateAtEveryShardCount) {
  // The sharded engine shares the Env's memos like the legacy loop does:
  // every shard/thread count exports the same run, and the VRF-share
  // memo keeps most of the legacy loop's run-wide hits.
  RunOptions options;
  options.protocol = Protocol::kBaWhp;
  options.n = 64;
  options.seed = 7;
  options.d = 0.001;  // perfbench's ba_whp setting; d = 0.02 wedges seed 7
  options.inputs.assign(64, ba::kOne);
  const std::uint64_t legacy_hits =
      run_agreement(options).counters[Counter::kVerifyMemoHits];

  // Everything but the shard telemetry, which names the shard count.
  auto surface = [](const RunReport& r, const std::string& metrics) {
    std::ostringstream os;
    os << r.all_correct_decided << r.agreement << r.decision.value_or(-1)
       << ' ' << r.max_decided_round << ' ' << r.correct_words << ' '
       << r.messages << ' ' << r.duration << ' ' << r.faulty << ' '
       << r.protocol_f << ' ' << r.sig_checks << ' ' << r.sig_memo_hits
       << ' ' << r.verify_enqueued << ' ' << r.verify_batch_flushed << ' '
       << r.verify_discarded << ' ' << r.corrupted << ' ' << r.supersteps
       << ' ' << r.invariant_violations.size() << '\n';
    for (const auto& [tag, words] : r.words_by_tag)
      os << tag << '=' << words << '\n';
    for (std::size_t c = 0; c < sim::kCounterCount; ++c)
      os << r.counters[static_cast<Counter>(c)] << ' ';
    return os.str() + '\n' + metrics;
  };

  std::string reference;
  std::uint64_t sharded_hits = 0;
  for (std::size_t shards : {1, 2, 4, 8}) {
    for (std::size_t threads : {1, 4}) {
      options.shards = shards;
      options.threads = threads;
      RunInstruments instruments;
      instruments.detailed_metrics = true;
      std::string metrics;
      instruments.metrics_out = [&](const sim::Metrics& m) {
        std::ostringstream os;
        m.to_json(os);
        metrics = os.str();
      };
      const RunReport r = run_agreement(options, instruments);
      ASSERT_TRUE(r.all_correct_decided);
      EXPECT_EQ(r.decision, 1);
      const std::string got = surface(r, metrics);
      if (reference.empty()) {
        reference = got;
        sharded_hits = r.counters[Counter::kVerifyMemoHits];
      }
      EXPECT_EQ(got, reference) << "shards=" << shards
                                << " threads=" << threads;
    }
  }
  EXPECT_GE(10 * sharded_hits, 9 * legacy_hits)
      << sharded_hits << " sharded vs " << legacy_hits << " legacy";
}

TEST(Runner, ReproCommandReplaysAnEvenSeedChurnCell) {
  // chaos_run's sweep runs even seeds with all-ones inputs expecting 1,
  // and churn cells with one crash-recover fault down for 64·n
  // deliveries. The repro line must carry both, or chaos_run replays
  // all-zero inputs with --recover-after 5000.
  RunOptions o;
  o.protocol = Protocol::kBaWhp;
  o.n = 32;
  o.seed = 12;
  o.chaos = sim::ChaosSchedule::preset("churn", o.n);
  o.check_invariants = true;
  o.inputs.assign(o.n, ba::kOne);
  o.expected_decision = 1;
  o.crash_recover = 1;
  o.recover_after = 64 * o.n;
  const std::string line = repro_command(o);
  EXPECT_NE(line.find(" --ones 32"), std::string::npos) << line;
  EXPECT_EQ(line.find("--expected"), std::string::npos) << line;
  EXPECT_NE(line.find(" --crash-recover 1 --recover-after 2048"),
            std::string::npos)
      << line;
  EXPECT_EQ(line.find("--max-rounds"), std::string::npos) << line;
  EXPECT_EQ(line.find('#'), std::string::npos) << line;
}

TEST(Runner, ReproCommandSaysWhatItCannotReplay) {
  RunOptions o;
  o.protocol = Protocol::kBracha;
  o.n = 8;
  o.max_rounds = 9;
  o.inputs = {ba::kOne, ba::kOne, ba::kOne, ba::kZero,
              ba::kZero, ba::kZero, ba::kZero, ba::kZero};
  o.expected_decision = 1;  // --ones 3 implies no expectation
  std::string line = repro_command(o);
  EXPECT_NE(line.find(" --ones 3 --expected 1 --max-rounds 9"),
            std::string::npos)
      << line;
  EXPECT_EQ(line.find('#'), std::string::npos) << line;

  o.inputs[5] = ba::kOne;
  line = repro_command(o);
  EXPECT_NE(line.find("# inputs are not a ones-prefix"), std::string::npos)
      << line;

  o.inputs.clear();  // all zero, which chaos_run's default replays
  o.expected_decision = 0;
  line = repro_command(o);
  EXPECT_EQ(line.find("--ones"), std::string::npos) << line;
  EXPECT_EQ(line.find("--expected"), std::string::npos) << line;
}

TEST(Runner, InstrumentedRunMatchesBareRun) {
  RunOptions options;
  options.protocol = Protocol::kBaWhp;
  options.n = 32;
  options.seed = 6;
  options.inputs.assign(32, ba::kOne);

  RunReport bare = run_agreement(options);

  RunInstruments instruments;
  instruments.detailed_metrics = true;
  bool metrics_seen = false;
  std::uint64_t phase_sum = 0, metrics_correct_words = 0;
  std::size_t phase_rows = 0;
  instruments.metrics_out = [&](const sim::Metrics& m) {
    metrics_seen = true;
    metrics_correct_words = m.correct_words();
    for (const auto& [phase, words] : m.words_by_phase()) {
      (void)phase;
      phase_sum += words;
      ++phase_rows;
    }
    EXPECT_FALSE(m.by_phase().empty());  // detail mode was on
  };
  RunReport instrumented = run_agreement(options, instruments);

  ASSERT_TRUE(metrics_seen);
  EXPECT_EQ(bare.all_correct_decided, instrumented.all_correct_decided);
  EXPECT_EQ(bare.decision, instrumented.decision);
  EXPECT_EQ(bare.correct_words, instrumented.correct_words);
  EXPECT_EQ(bare.messages, instrumented.messages);
  EXPECT_EQ(bare.duration, instrumented.duration);
  EXPECT_EQ(bare.max_decided_round, instrumented.max_decided_round);
  EXPECT_EQ(bare.words_by_tag, instrumented.words_by_tag);

  // The acceptance identity: phase buckets partition correct_words.
  EXPECT_GT(phase_rows, 1u);
  EXPECT_EQ(phase_sum, metrics_correct_words);
  EXPECT_EQ(phase_sum, instrumented.correct_words);
}

TEST(Runner, MetricsOutFiresWithoutDetailMode) {
  RunOptions options;
  options.protocol = Protocol::kBenOr;
  options.n = 7;
  options.seed = 2;
  options.inputs.assign(7, ba::kZero);
  RunInstruments instruments;
  std::uint64_t seen_words = 0;
  bool detail = true;
  instruments.metrics_out = [&](const sim::Metrics& m) {
    seen_words = m.correct_words();
    detail = m.detail_enabled();
  };
  RunReport report = run_agreement(options, instruments);
  EXPECT_EQ(seen_words, report.correct_words);
  EXPECT_FALSE(detail);  // only switched on when asked
}

TEST(CoinRunner, AllKindsReturnAndMostlyAgree) {
  for (CoinKind k : {CoinKind::kShared, CoinKind::kWhp, CoinKind::kDealer}) {
    int agreed = 0, returned = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      CoinOptions o;
      o.kind = k;
      o.n = 48;
      o.seed = 40 + seed;
      o.round = seed;
      CoinReport r = run_coin_trial(o);
      returned += r.all_returned;
      agreed += r.agreed_bit.has_value();
    }
    EXPECT_GE(returned, 9) << coin_name(k);
    EXPECT_GE(agreed, 7) << coin_name(k);
  }
}

TEST(CoinRunner, DealerCoinIsPerfect) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    CoinOptions o;
    o.kind = CoinKind::kDealer;
    o.n = 16;
    o.seed = seed;
    CoinReport r = run_coin_trial(o);
    EXPECT_TRUE(r.agreed_bit.has_value()) << seed;
  }
}

TEST(CoinRunner, IllegalBiasAdversarySkewsTheCoin) {
  // E6 in miniature: the content-aware adversary forces its bit far more
  // often than a fair coin would land on it.
  int biased_hits = 0, legal_hits = 0, biased_done = 0, legal_done = 0;
  const int kRuns = 40;
  for (std::uint64_t seed = 0; seed < kRuns; ++seed) {
    CoinOptions o;
    o.kind = CoinKind::kShared;
    o.n = 24;
    o.seed = 900 + seed;
    o.round = seed;
    CoinReport legal = run_coin_trial(o);
    if (legal.agreed_bit) {
      ++legal_done;
      legal_hits += (*legal.agreed_bit == 0);
    }
    o.content_aware_bias = true;
    o.bias_toward = 0;
    o.bias_budget = 2;  // = f at (n=24, eps=0.25)
    o.fairness_bound = 4000;  // wide-but-finite delays (still async-legal)
    CoinReport biased = run_coin_trial(o);
    if (biased.agreed_bit) {
      ++biased_done;
      biased_hits += (*biased.agreed_bit == 0);
    }
  }
  ASSERT_GT(legal_done, kRuns / 2);
  ASSERT_GT(biased_done, kRuns / 2);
  double legal_rate = static_cast<double>(legal_hits) / legal_done;
  double biased_rate = static_cast<double>(biased_hits) / biased_done;
  EXPECT_GT(biased_rate, legal_rate + 0.1);
  EXPECT_GT(biased_rate, 0.65);
}

TEST(CoinRunner, NamesAreStable) {
  EXPECT_STREQ(coin_name(CoinKind::kShared), "shared-coin");
  EXPECT_STREQ(coin_name(CoinKind::kWhp), "whp-coin");
  EXPECT_STREQ(coin_name(CoinKind::kDealer), "dealer-coin");
}

}  // namespace
}  // namespace coincidence::core
