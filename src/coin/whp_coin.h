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
#include "common/sender_rows.h"

namespace coincidence::coin {

class WhpCoin final : public CoinProtocol {
 public:
  /// Uses the setup's params, vrf, registry, sampler and batcher (all
  /// required).
  struct Config : Setup {
    /// Instance routing prefix (also the committee seed).
    std::string tag{};
    std::uint64_t round = 0;  // the argument r of whp_coin(r)
  };

  using DoneFn = std::function<void(int)>;

  /// The config is read, not kept: a host re-tags one Config per round.
  WhpCoin(const Config& cfg, DoneFn on_done = {});
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
  const Bytes& current_min_value() const { return min_.value; }
  crypto::ProcessId current_min_origin() const { return min_.origin; }
  /// Origins of firsts received when the <second> went out (Lemma B.1's
  /// table row); empty unless this process is a second-committee member
  /// that reached W firsts.
  const std::set<crypto::ProcessId>& phase1_snapshot() const;

 private:
  struct Wire;

  // Rows of seen_.
  static constexpr std::size_t kFirstRow = 0;
  static constexpr std::size_t kSecondRow = 1;
  static constexpr std::size_t kRows = 2;

  /// Applies one share whose election AND value proofs verified.
  void apply_share(sim::Context& ctx, bool is_first,
                   crypto::ProcessId sender, BytesView value,
                   crypto::ProcessId origin, BytesView origin_proof);
  /// Batch-verifies and applies every queued share, in arrival order.
  void flush_queue(sim::Context& ctx);
  bool should_flush() const;

  const std::string& first_seed() const { return tag_first_.str(); }
  const std::string& second_seed() const { return tag_second_.str(); }

  Setup setup_;
  std::uint64_t round_ = 0;
  DoneFn on_done_;

  // Interned at construction so handle() matches tags by integer id; the
  // tag strings double as the committee seeds, and the VRF input is
  // cached — zero allocations per delivered message.
  sim::Tag tag_;  // the instance tag, the scope of its decide event
  sim::Tag tag_first_;
  sim::Tag tag_second_;
  Bytes vrf_input_;

  bool in_first_ = false;
  bool in_second_ = false;
  Bytes first_election_proof_;
  Bytes second_election_proof_;

  MinShare min_;
  SenderRows seen_;  // distinct senders per phase
  std::size_t first_count_ = 0;
  std::size_t second_count_ = 0;
  std::vector<bool> first_snapshot_;  // the first row at second-send
  mutable std::set<crypto::ProcessId> snapshot_set_;  // built when read
  bool sent_second_ = false;
  bool done_ = false;
  int output_ = 0;

  PendingVerifyQueue queue_;
};

}  // namespace coincidence::coin
