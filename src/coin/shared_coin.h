// Algorithm 1: the full-participation asynchronous shared coin.
//
//   v_i <- VRF_i(r); send <first, v_i> to all
//   on n−f valid firsts: send <second, min seen> to all
//   on n−f valid seconds: return LSB(min seen)
//
// Every value travels with the *originator's* VRF proof, so Byzantine
// processes can neither choose their coin contribution nor relay a
// fabricated minimum — exactly the paper's "the VRF proof would easily
// expose it and its message would be ignored".
//
// Success rate >= (18ε² + 24ε − 1) / (6(1+6ε))  (Theorem 4.13).
// Word complexity O(n²): 2n broadcasts of constant-word messages.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>

#include "coin/coin_protocol.h"
#include "coin/verify_queue.h"
#include "crypto/key_registry.h"
#include "crypto/vrf.h"

namespace coincidence::coin {

class SharedCoin final : public CoinProtocol {
 public:
  struct Config {
    std::string tag;        // instance routing prefix, e.g. "coin/7"
    std::uint64_t round;    // the argument r of shared_coin(r)
    std::size_t n = 0;
    std::size_t f = 0;
    std::shared_ptr<const crypto::Vrf> vrf;
    std::shared_ptr<const crypto::KeyRegistry> registry;
    /// Required: share proofs are queued and batch-verified on the
    /// thresholds described in verify_queue.h.
    std::shared_ptr<BatchVerifier> batcher;
  };

  /// `on_done` fires exactly once, with the coin output bit.
  using DoneFn = std::function<void(int)>;

  SharedCoin(Config cfg, DoneFn on_done = {});
  /// A retiring coin settles its verification ledger: whatever is still
  /// queued unverified is reported to the batcher as discarded, keeping
  /// enqueued == flushed + discarded across round ends and crashes.
  ~SharedCoin() override;

  void start(sim::Context& ctx) override;
  bool handle(sim::Context& ctx, const sim::Message& msg) override;
  bool done() const override { return done_; }
  int output() const override;

  /// Exposed for whitebox tests: the minimum (value, origin) held so far.
  const Bytes& current_min_value() const { return min_value_; }

  /// The set of origins whose first-phase values this process had
  /// received when it sent its <second> message — the row of the table T
  /// in Lemma 4.2's proof. Empty until the second is sent.
  const std::set<crypto::ProcessId>& phase1_snapshot() const {
    return first_snapshot_;
  }

 private:
  struct Wire;  // payload codec

  /// Updates the running minimum with a validated (value, origin) pair.
  void fold_min(BytesView value, crypto::ProcessId origin,
                BytesView origin_proof);
  /// Applies one VERIFIED share.
  void apply_share(sim::Context& ctx, bool is_first,
                   crypto::ProcessId sender, BytesView value,
                   crypto::ProcessId origin, BytesView origin_proof);
  /// Batch-verifies and applies every queued share, in arrival order.
  void flush_queue(sim::Context& ctx);
  /// True if a flush trigger (candidate threshold / watermark) is met.
  bool should_flush() const;

  Config cfg_;
  DoneFn on_done_;

  // Precomputed at construction: handle() matches tags by integer id and
  // evaluates against the cached input — no allocation per message.
  sim::Tag tag_first_;
  sim::Tag tag_second_;
  Bytes vrf_input_;

  Bytes min_value_;            // current minimum VRF value (empty = none)
  crypto::ProcessId min_origin_ = 0;
  Bytes min_origin_proof_;     // the originator's VRF proof for min_value_
  std::set<crypto::ProcessId> first_set_;
  std::set<crypto::ProcessId> first_snapshot_;  // first_set_ at second-send
  std::set<crypto::ProcessId> second_set_;
  bool sent_second_ = false;
  bool done_ = false;
  int output_ = 0;

  PendingVerifyQueue queue_;
};

}  // namespace coincidence::coin
