// Deferred coin-share verification (the batch-verification plane).
//
// Checking each delivered share on arrival would pay a full VRF proof
// check per message — the dominant CPU cost of a run under the DDH
// backend. Instead, coins push arriving shares into a per-instance
// PendingVerifyQueue and flush it through the run's BatchVerifier when
//   (a) the *candidate* count (verified + pending) reaches the phase
//       threshold — so threshold actions fire in the delivery frame
//       whose share completes the threshold,
//   (b) the pending count hits the batch-size watermark, or
//   (c) the round ends (a retired coin simply drops its queue: its
//       output was already delivered).
// A flush folds all pending proofs into one DdhVrf::batch_verify random
// linear combination (near-k-fold amortization) and consults the
// verified-share memo so duplicate/replayed tuples never re-verify.
//
// Flushed shares apply in arrival order under the coin's own guards, so
// sends, decides and outputs are exactly those of checking every share
// on arrival; only the Metrics verify counters show the batching.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/shared_bytes.h"
#include "common/striped_counter.h"
#include "committee/sampler.h"
#include "crypto/sig_memo.h"
#include "crypto/signer.h"
#include "crypto/verdict_memo.h"
#include "crypto/verify_memo.h"
#include "crypto/vrf.h"

namespace coincidence::coin {

/// Shared, per-Env verification service: memoized + batched VRF share
/// checks, batched committee-election checks, memoized signature checks,
/// and the run-wide verdict memos of erasure-coded echoes (rbc_memo) and
/// whole approver <ok> certificates (ok_memo). One instance is shared
/// by every process of a run on both simulator engines, which lets the
/// memos dedup identical tuples across receivers: a share or an <ok>
/// broadcast to n processes verifies once, not n times. Concurrent
/// sharded handlers only read the memos (their stores wait for the
/// superstep barrier, common/write_sink.h), and every counter here and
/// in the memos is a StripedCounter (common/striped_counter.h): a
/// handler thread counts on its own cache line, and a read sums them.
class BatchVerifier {
 public:
  struct Config {
    std::shared_ptr<const crypto::Vrf> vrf;  // required
    /// Needed only by callers that defer election checks (whp coin).
    std::shared_ptr<const committee::Sampler> sampler;
    /// Needed only by callers that defer HMAC signature checks (the
    /// approver's ok-proof sweep).
    std::shared_ptr<const crypto::Signer> signer;
  };

  /// Pending shares (or ok messages) that force a queue flush.
  static constexpr std::size_t kWatermark = 16;

  struct FlushStats {
    std::size_t rejects = 0;    // entries that failed verification
    std::size_t memo_hits = 0;  // entries answered from the memo
  };

  explicit BatchVerifier(Config cfg);

  /// Verifies every entry (memo first, then one batched verification of
  /// the misses). out[i] is the verdict for entries[i], exactly what
  /// Vrf::verify would return.
  FlushStats verify_shares(std::span<const crypto::VrfBatchEntry> entries,
                           std::vector<char>& out);

  /// Batched committee_val (see Sampler::committee_val_batch). Requires
  /// a sampler in the config.
  void verify_elections(std::span<const committee::Sampler::ValCheck> checks,
                        std::vector<char>& out);

  /// Verifies every signature entry: memo first, then ONE
  /// Signer::batch_verify over the distinct misses (identical triples
  /// within the flush verify once and fan the verdict out), memo filled
  /// in entry order. out[i] is exactly what Signer::verify would return
  /// for entries[i]. Requires a signer in the config.
  FlushStats verify_signatures(std::span<const crypto::SigBatchEntry> entries,
                               std::vector<char>& out);

  /// One memoized signature check — the echo fast path: a broadcast
  /// ⟨echo,v⟩ reaches n receivers who all share this verifier, so the
  /// same (signer, message, sig) triple verifies once run-wide. Verdict
  /// identical to Signer::verify. `memo_hit` (optional) reports whether
  /// the memo answered.
  bool check_signature(const crypto::SigBatchEntry& entry,
                       bool* memo_hit = nullptr);

  const crypto::VerifyMemo& memo() const { return memo_; }
  const crypto::SigMemo& sig_memo() const { return sig_memo_; }
  /// Branch and re-encode verdicts of the erasure-coded broadcasts
  /// (Broadcast::Config::memo), shared by every process of the run.
  crypto::VerdictMemo& rbc_memo() { return rbc_memo_; }
  /// Verdicts of whole approver <ok> certificates: the W embedded echo
  /// elections and signatures, keyed by (approver ok seed, ok payload)
  /// (ba/approver.h). The ok sender's own election is not part of it.
  crypto::VerdictMemo& ok_memo() { return ok_memo_; }

  /// Signature-path counters (verify_signatures + check_signature),
  /// cumulative across all processes of the run.
  std::uint64_t sig_batches() const { return sig_batches_.value(); }
  std::uint64_t sig_checks() const { return sig_checks_.value(); }
  std::uint64_t sig_rejects() const { return sig_rejects_.value(); }

  /// Queue-lifecycle ledger, maintained by the coins that defer into this
  /// verifier: every share enqueued into a PendingVerifyQueue is either
  /// flushed through verify_shares or discarded unverified when its coin
  /// retires (round end, crash, or teardown). The conservation law
  ///   enqueued() == flushed() + discarded()
  /// must hold once every queue is drained or dropped — crash-recovery
  /// must not lose or double-count a share (satellite check in
  /// tests/coin/test_verify_recovery.cpp).
  void note_enqueued() { ++enqueued_; }
  void note_flushed(std::uint64_t k) { flushed_ += k; }
  void note_discarded(std::uint64_t k) { discarded_ += k; }
  std::uint64_t enqueued() const { return enqueued_.value(); }
  std::uint64_t flushed() const { return flushed_.value(); }
  std::uint64_t discarded() const { return discarded_.value(); }

 private:
  Config cfg_;
  crypto::VerifyMemo memo_;
  crypto::SigMemo sig_memo_;
  crypto::VerdictMemo rbc_memo_;
  crypto::VerdictMemo ok_memo_;
  StripedCounter sig_batches_;
  StripedCounter sig_checks_;
  StripedCounter sig_rejects_;
  StripedCounter enqueued_;
  StripedCounter flushed_;
  StripedCounter discarded_;
};

/// Arrival-ordered buffer of not-yet-verified coin shares. The payload
/// buffer is retained by refcount (SharedBytes), so the views stay valid
/// after the delivery frame returns — nothing is copied.
class PendingVerifyQueue {
 public:
  struct Share {
    SharedBytes buf;  // keeps the views below alive
    crypto::ProcessId sender = 0;
    crypto::ProcessId origin = 0;
    bool is_first = false;
    BytesView value;
    BytesView origin_proof;
    BytesView election_proof;  // empty for SharedCoin shares
  };

  /// A queue never holds more than a batch: a coin flushes at the
  /// watermark.
  PendingVerifyQueue() { shares_.reserve(BatchVerifier::kWatermark); }

  void enqueue(Share s) {
    (s.is_first ? pending_first_ : pending_second_) += 1;
    shares_.push_back(std::move(s));
  }

  bool empty() const { return shares_.empty(); }
  std::size_t pending() const { return shares_.size(); }
  std::size_t pending_first() const { return pending_first_; }
  std::size_t pending_second() const { return pending_second_; }

  /// Drains the queue into `out` (cleared first), in arrival order. The
  /// queue keeps `out`'s old capacity, so a flush that hands its buffer
  /// back allocates nothing in the steady state.
  void take(std::vector<Share>& out) {
    pending_first_ = pending_second_ = 0;
    out.clear();
    out.swap(shares_);
  }

 private:
  std::vector<Share> shares_;
  std::size_t pending_first_ = 0;
  std::size_t pending_second_ = 0;
};

/// A coin's flush buffers, leased per flush from this thread's
/// ScratchPool (common/scratch_pool.h): a coin allocates nothing per
/// flush, and a flush re-entered from a completion callback leases
/// buffers of its own instead of overwriting the outer one's.
struct FlushScratch {
  std::vector<PendingVerifyQueue::Share> shares;
  std::vector<committee::Sampler::ValCheck> checks;  // whp coin only
  std::vector<crypto::VrfBatchEntry> entries;
  std::vector<std::size_t> entry_of;  // share index of each entry
  std::vector<char> accept;           // verdict per share
  std::vector<char> verdicts;         // verdict per entry
};

}  // namespace coincidence::coin
