// Deferred verification (coin/verify_queue.h) under crash-recovery and
// re-delivery — the ISSUE satellites around the BatchVerifier:
//
//  * Queue-ledger conservation: enqueued == batch_flushed + discarded on
//    every run. A crash-recovery destroys the live coin's pending queue
//    (settled as discarded-unverified) and a share re-delivered into a
//    retired round must NOT re-enter a fresh PendingVerifyQueue — either
//    failure mode breaks the ledger, so the equality is the regression
//    oracle.
//  * Verdict stability: re-delivered shares hit the verified-share memo
//    or re-verify to the same verdict; deferring verification changes no
//    decision, word or message count even under crash-recovery + replay
//    links (bit-identical to the inline-verification run).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/runner.h"
#include "sim/link.h"

namespace coincidence::core {
namespace {

using sim::Counter;

using sim::LinkPlan;
using sim::NetworkProfile;

RunOptions recovery_options(Protocol protocol, std::size_t n,
                            std::uint64_t seed) {
  RunOptions o;
  o.protocol = protocol;
  o.n = n;
  o.seed = seed;
  o.check_invariants = true;
  o.inputs.assign(n, seed % 2 ? ba::kOne : ba::kZero);
  o.expected_decision = static_cast<int>(seed % 2);
  o.crash_recover = 1;
  o.recover_after = 32 * n;  // restart lands mid-protocol, not post-run
  return o;
}

void expect_ledger_balanced(const RunReport& r, const std::string& label) {
  EXPECT_EQ(r.verify_enqueued, r.verify_batch_flushed + r.verify_discarded)
      << label << ": enqueued=" << r.verify_enqueued
      << " flushed=" << r.verify_batch_flushed
      << " discarded=" << r.verify_discarded;
}

// The conservation law across a spread of crash-recover runs on both
// VRF-backed protocols. Every deferred share is eventually flushed to
// the batch verifier or explicitly settled as discarded-unverified when
// its round retires — recovery neither loses nor double-counts.
TEST(VerifyRecovery, QueueLedgerBalancesAcrossCrashRecovery) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunOptions o = recovery_options(Protocol::kMmrSharedCoin, 4, seed);
    RunReport r = run_agreement(o);
    const std::string label = "mmr-vrf-coin/seed=" + std::to_string(seed);
    expect_ledger_balanced(r, label);
    EXPECT_TRUE(r.invariant_violations.empty()) << label;
    EXPECT_GT(r.verify_enqueued, 0u) << label;  // deferral actually ran
  }
  RunOptions o = recovery_options(Protocol::kBaWhp, 32, 3);
  RunReport r = run_agreement(o);
  expect_ledger_balanced(r, "ba-whp/seed=3");
  EXPECT_TRUE(r.invariant_violations.empty());
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_GT(r.verify_enqueued, 0u);
}

// A crash-recovery landing in a retired round must not re-admit stale
// shares: replay-heavy links re-deliver pre-crash coin shares after the
// restart, and each one must either hit the verified-share memo or be
// dropped by the round gate — never enqueue into a fresh queue for a
// finished round. The balanced ledger plus a clean invariant slate is
// exactly that assertion, made on a link profile built to re-deliver.
TEST(VerifyRecovery, RedeliveredSharesAfterRecoveryKeepLedgerExact) {
  LinkPlan noisy;
  noisy.dup_p = 0.4;
  noisy.max_duplicates = 2;
  noisy.replay_p = 0.3;
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    RunOptions o = recovery_options(Protocol::kMmrSharedCoin, 4, seed);
    o.network = NetworkProfile::uniform(noisy);
    RunReport r = run_agreement(o);
    const std::string label = "redelivery/seed=" + std::to_string(seed);
    expect_ledger_balanced(r, label);
    EXPECT_TRUE(r.invariant_violations.empty()) << label;
    EXPECT_TRUE(r.agreement) << label;
  }
}

// Verdict stability: deferring verification must change nothing but the
// verify_* counters, even when a crash-recovery and a replaying link
// conspire to re-deliver shares into restarted state. Decisions, rounds,
// words and messages are bit-identical to the inline-verification run,
// and no honest share is ever rejected on either path.
TEST(VerifyRecovery, DeferredVerdictsMatchInlineUnderCrashRecovery) {
  LinkPlan noisy;
  noisy.dup_p = 0.5;
  noisy.max_duplicates = 2;
  noisy.replay_p = 0.3;
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    RunOptions deferred = recovery_options(Protocol::kMmrWhpCoin, 32, seed);
    deferred.network = NetworkProfile::uniform(noisy);
    RunOptions inline_verify = deferred;
    inline_verify.defer_verify = false;

    RunReport a = run_agreement(deferred);
    RunReport b = run_agreement(inline_verify);
    const std::string label = "verdicts/seed=" + std::to_string(seed);

    EXPECT_EQ(a.all_correct_decided, b.all_correct_decided) << label;
    EXPECT_EQ(a.decision, b.decision) << label;
    EXPECT_EQ(a.max_decided_round, b.max_decided_round) << label;
    EXPECT_EQ(a.correct_words, b.correct_words) << label;
    EXPECT_EQ(a.messages, b.messages) << label;
    EXPECT_EQ(a.words_by_tag, b.words_by_tag) << label;

    // The deferred run really deferred; the inline run really didn't.
    EXPECT_GT(a.verify_enqueued, 0u) << label;
    EXPECT_EQ(b.verify_enqueued, 0u) << label;
    expect_ledger_balanced(a, label);
    // Honest shares re-delivered verbatim answer from the memo (or
    // re-verify to the same accepting verdict): zero rejects on both
    // paths is the "verdicts bit-identical" claim in counter form.
    EXPECT_EQ(a.counters[Counter::kVerifyRejects], 0u) << label;
    EXPECT_EQ(b.counters[Counter::kVerifyRejects], 0u) << label;
    EXPECT_GT(a.counters[Counter::kVerifyMemoHits], 0u) << label;
  }
}

// The ledger law extended to SIGNATURE entries: ba-whp's approver defers
// its W-signature ok sweeps through the same shared BatchVerifier, so a
// crash-recovery that destroys an approver's pending-ok queue settles
// those oks as discarded — the conservation equality must keep holding
// with approver traffic folded in, and the signature plane must actually
// have run (flushes, HMAC checks and cross-receiver memo hits all > 0).
TEST(VerifyRecovery, SignatureLedgerBalancesAcrossCrashRecovery) {
  for (std::uint64_t seed : {3ULL, 11ULL}) {
    RunOptions o = recovery_options(Protocol::kBaWhp, 32, seed);
    RunReport r = run_agreement(o);
    const std::string label = "ba-whp-sig/seed=" + std::to_string(seed);
    expect_ledger_balanced(r, label);
    EXPECT_TRUE(r.invariant_violations.empty()) << label;
    EXPECT_TRUE(r.all_correct_decided) << label;
    // The signature batch plane really ran...
    EXPECT_GT(r.counters[Counter::kSigVerifyFlushes], 0u) << label;
    EXPECT_GT(r.counters[Counter::kSigVerifySigs], 0u) << label;
    // ...and the memo collapsed repeats: every ok embeds the SAME W
    // signed echoes, and echo-phase checks share the memo, so hits
    // dominate (each broadcast triple verifies ~once run-wide).
    EXPECT_GT(r.sig_memo_hits * 2, r.sig_checks) << label;
    // Honest-only run: deferral rejects nothing.
    EXPECT_EQ(r.counters[Counter::kSigVerifyRejects], 0u) << label;
  }
}

// Memoized vs direct signature verdicts stay bit-identical for ba-whp
// even when crash-recovery replays the approver mid-protocol: decision,
// rounds, words and messages match the inline-verification run exactly,
// and only the deferred run touches the signature batch counters.
TEST(VerifyRecovery, BaWhpDeferredSigVerdictsMatchInlineUnderRecovery) {
  for (std::uint64_t seed : {5ULL, 8ULL}) {
    RunOptions deferred = recovery_options(Protocol::kBaWhp, 32, seed);
    RunOptions inline_verify = deferred;
    inline_verify.defer_verify = false;

    RunReport a = run_agreement(deferred);
    RunReport b = run_agreement(inline_verify);
    const std::string label = "ba-whp-verdicts/seed=" + std::to_string(seed);

    EXPECT_EQ(a.all_correct_decided, b.all_correct_decided) << label;
    EXPECT_EQ(a.decision, b.decision) << label;
    EXPECT_EQ(a.max_decided_round, b.max_decided_round) << label;
    EXPECT_EQ(a.correct_words, b.correct_words) << label;
    EXPECT_EQ(a.messages, b.messages) << label;
    EXPECT_EQ(a.words_by_tag, b.words_by_tag) << label;

    EXPECT_GT(a.counters[Counter::kSigVerifySigs], 0u) << label;
    EXPECT_EQ(b.counters[Counter::kSigVerifySigs], 0u) << label;
    EXPECT_EQ(a.counters[Counter::kSigVerifyRejects], 0u) << label;
    expect_ledger_balanced(a, label);
  }
}

// Same-seed determinism of the ledger itself: two identical crash-recover
// runs produce identical verify counters (the queue is on the delivery
// clock, not wall clock).
TEST(VerifyRecovery, LedgerCountersAreSeedDeterministic) {
  RunOptions o = recovery_options(Protocol::kMmrSharedCoin, 4, 9);
  RunReport a = run_agreement(o);
  RunReport b = run_agreement(o);
  EXPECT_EQ(a.verify_enqueued, b.verify_enqueued);
  EXPECT_EQ(a.verify_batch_flushed, b.verify_batch_flushed);
  EXPECT_EQ(a.verify_discarded, b.verify_discarded);
  EXPECT_EQ(a.counters, b.counters);
}

}  // namespace
}  // namespace coincidence::core
