// Algorithm 2: the committee-sampled WHP coin.
//
// Two committees are sampled locally via the VRF (seeds "<tag>/first",
// "<tag>/second"): only first-committee members contribute VRF values,
// only second-committee members relay minima, but messages go to all n
// processes (membership is unpredictable, so there is nobody smaller to
// address). Thresholds move from n−f to W = ⌈(2/3+3d)λ⌉, justified by the
// Chernoff properties S1–S6.
//
// Success rate >= (18d² + 27d − 1)/(3(5+6d)(1−d)(1+9d)) whp (Theorem 5.4).
// Word complexity O(nλ) = O(n log n) in expectation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coin/coin_protocol.h"
#include "coin/setup.h"
#include "coin/verify_queue.h"

namespace coincidence::coin {

class WhpCoin final : public CoinProtocol {
 public:
  /// Uses the setup's params, vrf, registry, sampler and batcher.
  struct Config : Setup {
    /// Instance routing prefix (also the committee seed).
    std::string tag{};
    std::uint64_t round = 0;  // the argument r of whp_coin(r)
  };

  using DoneFn = std::function<void(int)>;

  WhpCoin(Config cfg, DoneFn on_done = {});
  /// A retiring coin settles its verification ledger: whatever is still
  /// queued unverified is reported to the batcher as discarded, keeping
  /// enqueued == flushed + discarded across round ends and crashes.
  ~WhpCoin() override;

  void start(sim::Context& ctx) override;
  bool handle(sim::Context& ctx, const sim::Message& msg) override;
  bool done() const override { return done_; }
  int output() const override;

  /// Whitebox accessors for tests.
  bool in_first_committee() const { return in_first_; }
  bool in_second_committee() const { return in_second_; }
  const Bytes& current_min_value() const { return min_value_; }
  crypto::ProcessId current_min_origin() const { return min_origin_; }
  /// Origins of firsts received when the <second> went out (Lemma B.1's
  /// table row); empty unless this process is a second-committee member
  /// that reached W firsts.
  const std::set<crypto::ProcessId>& phase1_snapshot() const {
    return first_snapshot_;
  }

 private:
  struct Wire;

  void fold_min(BytesView value, crypto::ProcessId origin,
                BytesView origin_proof);
  bool mark_seen(std::vector<bool>& seen, crypto::ProcessId from);
  /// Applies one share whose election AND value proofs verified — the
  /// state transition shared by the inline and deferred paths.
  void apply_share(sim::Context& ctx, bool is_first,
                   crypto::ProcessId sender, BytesView value,
                   crypto::ProcessId origin, BytesView origin_proof);
  /// Batch-verifies and applies every queued share, in arrival order.
  void flush_queue(sim::Context& ctx);
  bool should_flush() const;

  Config cfg_;
  DoneFn on_done_;

  // Precomputed at construction so handle() matches tags by integer id
  // and verifies against cached seed/input bytes — zero allocations per
  // delivered message.
  sim::Tag tag_first_;
  sim::Tag tag_second_;
  std::string first_seed_;
  std::string second_seed_;
  Bytes vrf_input_;

  bool in_first_ = false;
  bool in_second_ = false;
  Bytes first_election_proof_;
  Bytes second_election_proof_;

  Bytes min_value_;  // empty encodes the paper's v_i = ∞
  crypto::ProcessId min_origin_ = 0;
  Bytes min_origin_proof_;
  // Per-sender dedup bitmaps + counts (replacing std::set: no node
  // allocation per accepted message).
  std::vector<bool> first_seen_;
  std::vector<bool> second_seen_;
  std::size_t first_count_ = 0;
  std::size_t second_count_ = 0;
  std::set<crypto::ProcessId> first_snapshot_;  // first set at second-send
  bool sent_second_ = false;
  bool done_ = false;
  int output_ = 0;

  PendingVerifyQueue queue_;  // unused (always empty) without a batcher
};

}  // namespace coincidence::coin
