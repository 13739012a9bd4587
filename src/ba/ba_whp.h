// Algorithm 4: asynchronous Byzantine Agreement WHP.
//
// Per round r (all sub-instances tagged "<tag>/<r>/..."):
//   vals  <- approve(est)                      (first approver)
//   propose <- v if vals == {v} else ⊥
//   c     <- whp_coin(r)                       (after proposals are fixed,
//                                               so the adversary cannot
//                                               bias proposals by the flip)
//   props <- approve(propose)                  (second approver)
//   props == {v}, v != ⊥ : est <- v; decide v if undecided
//   props == {⊥}         : est <- c
//   props == {v, ⊥}      : est <- v
//
// Expected O(1) rounds (success rate ρ of the coin per round), expected
// Õ(n) words. Processes keep participating through round decided+1 so
// that stragglers can finish (Lemma 6.16 shows everyone decides at most
// one round later whp), then halt.
//
// Round-skip liveness fallback (Config::skip_timeout, off by default):
// the paper's per-round sub-protocols terminate only whp — a committee
// drawn with fewer than W live members (a real event at relaxed small-n
// parameters, see DESIGN.md §5h) wedges its round forever, since no ok
// quorum can ever assemble. When the fallback is armed, a process that
// sees no round progress for skip_timeout delivery events broadcasts
// <skip-req, r>; f+1 distinct requests make everyone join (Bracha-style
// amplification) and 2f+1 advance the round with *fresh* committees,
// which succeed whp. Two guards close the decided-vs-skipped races:
//  - lock forwarding: a skip-req carries one verified non-⊥ <ok> of the
//    dying round (if its sender applied any); skippers adopt the locked
//    value as est, so a round in which a decision was brewing re-proposes
//    that value.
//  - decision certificates: a decided process answers skip-reqs with the
//    W verified <ok> payloads that formed props = {v}; any process
//    accepts a valid certificate as an immediate decision (the cert is
//    exactly the props = {v} evidence, so certificate decisions inherit
//    the ok-quorum intersection argument of Lemmas 6.5/6.6).
// The fallback trades nothing deterministic away — agreement was already
// whp (committee quorums) — and restores termination across the
// committee-tail event at O(n²) extra words only on wedged rounds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ba/approver.h"
#include "ba/ba_process.h"
#include "ba/value.h"
#include "coin/whp_coin.h"

namespace coincidence::ba {

class BaWhp final : public BaProcess {
 public:
  /// The setup is handed whole to every round's approvers and coin.
  struct Config : coin::Setup {
    std::string tag = "ba";
    /// Stop starting new rounds beyond this bound (whp-failure guard; the
    /// expected number of rounds is a small constant).
    std::uint64_t max_rounds = 64;
    /// Rounds to keep participating after deciding. Lemma 6.16 says one
    /// extra round suffices whp; the default adds slack for the rare
    /// whp-failure so stragglers are not stranded by halted deciders.
    std::uint64_t extra_rounds = 4;
    /// Round-skip liveness fallback (header comment above): broadcast a
    /// <skip-req> after this many delivery events without round progress.
    /// 0 (the default) disables the fallback entirely — no wakeups, no
    /// extra messages, byte-identical to prior releases. Multi-slot
    /// drivers arm auto_skip_timeout() (below).
    std::uint64_t skip_timeout = 0;
  };

  BaWhp(Config cfg, Value initial);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Message& msg) override;
  /// Skip-fallback timer (armed only when Config::skip_timeout > 0).
  void on_wakeup(sim::Context& ctx) override;
  /// kCrashRecover restart: every live sub-instance (and its deferred
  /// verify queue) is torn down, then (round, est, decision) are rebuilt
  /// from the persisted snapshot — or from the initial value when the
  /// snapshot is missing/corrupt — and the round is restarted. The
  /// snapshot is written at every round boundary, so a recovered process
  /// can never land in a round it had already retired, and a restored
  /// decision can never flip (the no-divergence-across-recovery
  /// invariant).
  void on_recover(sim::Context& ctx, const Bytes& snapshot) override;

  bool decided() const override { return decision_.has_value(); }
  int decision() const override;
  std::uint64_t decided_round() const override;

  std::uint64_t current_round() const { return round_; }
  Value estimate() const { return est_; }

  /// Whitebox introspection for tests and the session stall diagnostics:
  /// which sub-protocol of the current round this process is waiting in.
  const char* phase_name() const {
    switch (phase_) {
      case Phase::kApproveEst: return "a1";
      case Phase::kCoin: return "coin";
      case Phase::kApprovePropose: return "a2";
      case Phase::kHalted: return "halted";
    }
    return "?";
  }
  const Approver* active_approver() const { return approver_.get(); }
  std::size_t backlog_size() const { return backlog_.size(); }
  std::uint64_t rounds_skipped() const { return rounds_skipped_; }
  bool decided_by_certificate() const { return decided_by_cert_; }

 private:
  enum class Phase { kApproveEst, kCoin, kApprovePropose, kHalted };

  std::string round_tag(std::uint64_t r) const {
    return cfg_.tag + "/" + std::to_string(r);
  }

  void begin_round(sim::Context& ctx);
  void on_vals(sim::Context& ctx, const std::set<Value>& vals);
  void on_coin(sim::Context& ctx, int c);
  void on_props(sim::Context& ctx, const std::set<Value>& props);
  void advance_round(sim::Context& ctx);
  void replay_backlog(sim::Context& ctx);
  bool offer(sim::Context& ctx, const sim::Message& msg);
  /// The round a "<tag>/<r>/..." tag names (sim::tag_index); a tag that
  /// names none maps to the current round.
  std::uint64_t tag_round(sim::Tag tag) const;
  /// Writes the round-boundary snapshot to stable storage.
  void persist_now(sim::Context& ctx);

  // Round-skip fallback (no-ops unless cfg_.skip_timeout > 0).
  bool skip_enabled() const { return cfg_.skip_timeout > 0; }
  /// True for "<tag>/<r>/skip" with a canonical round r.
  bool is_skip_tag(sim::Tag tag) const;
  void arm_skip_timer(sim::Context& ctx);
  /// A current-round sub-instance consumed a message: the round is
  /// alive, so slide the skip deadline and forgive past attempts. Makes
  /// the timeout a *silence* detector rather than a latency bound —
  /// robust to pipelined sessions stretching healthy rounds.
  void note_progress(sim::Context& ctx);
  void send_skip_req(sim::Context& ctx);
  bool handle_skip_req(sim::Context& ctx, const sim::Message& msg);
  void execute_skip(sim::Context& ctx);
  void maybe_send_cert(sim::Context& ctx, sim::ProcessId to);
  bool handle_decided_cert(sim::Context& ctx, const sim::Message& msg);
  /// The a2 tag of round r — the committee-seed root certificate and
  /// lock oks verify against.
  std::string a2_tag(std::uint64_t r) const { return round_tag(r) + "/a2"; }
  /// A verified non-⊥ ok of the current round's a2 to forward as a lock:
  /// this process's own applied oks first, else a retained forwarded one.
  std::optional<Approver::AppliedOk> current_lock() const;
  /// insert().second over a growable sender bitmap (see Approver's).
  static bool mark_seen(std::vector<bool>& seen, crypto::ProcessId from);

  Config cfg_;
  std::string round_prefix_;  // "<tag>/", the round tags' prefix
  Value initial_;  // recovery fallback when no snapshot survives
  Value est_;
  std::optional<int> decision_;
  std::uint64_t decision_round_ = 0;
  std::uint64_t round_ = 0;
  Phase phase_ = Phase::kApproveEst;
  Value propose_ = kBot;
  int coin_value_ = 0;

  std::unique_ptr<Approver> approver_;  // the active approver instance
  std::unique_ptr<coin::WhpCoin> coin_;

  // Completed sub-instances are retired here instead of being destroyed:
  // a phase transition fires from *inside* the old instance's handle()
  // frame, so destroying it there would be use-after-free. Drained at the
  // top of the next on_message, when no sub-instance frame is active.
  std::vector<std::unique_ptr<Approver>> retired_approvers_;
  std::vector<std::unique_ptr<coin::WhpCoin>> retired_coins_;

  // Messages for sub-instances that do not exist yet (future rounds /
  // later phases) — replayed on every phase change. Bounded by the total
  // traffic of max_rounds rounds.
  std::vector<sim::Message> backlog_;

  // --- Round-skip fallback state (all dormant when skip_timeout == 0).
  sim::Tag tag_decided_;              // "<tag>/decided", round-independent
  sim::Tag tag_skip_;                 // "<tag>/<round_>/skip", per round
  std::vector<bool> skip_seen_;       // distinct skip-req senders, this round
  std::uint32_t skip_count_ = 0;
  bool sent_skip_ = false;
  std::uint32_t skip_attempts_ = 0;
  std::uint64_t armed_round_ = 0;     // round the pending wakeup watches
  std::uint64_t skip_deadline_ = 0;   // now() at which the timer is due:
                                      // hosts (Session, MultiValuedBa) fan
                                      // wakeups to every instance, so each
                                      // filters ticks meant for a sibling
  std::uint64_t next_wakeup_at_ = 0;  // tick of this instance's own live
                                      // wakeup chain (one per instance)
  std::uint32_t lock_checks_ = 0;     // forwarded-lock verifications, per round
  std::optional<Approver::AppliedOk> fwd_lock_;  // verified forwarded lock
  std::uint64_t rounds_skipped_ = 0;
  bool decided_by_cert_ = false;
  // Decision certificate: the W applied oks that formed props = {v}, or
  // the entries of an accepted forwarded certificate. Retained payloads.
  std::vector<Approver::AppliedOk> cert_oks_;
  std::uint64_t cert_round_ = 0;      // a2 round the certificate verifies in
  std::vector<bool> certed_;          // requesters already answered
  std::vector<bool> cert_rejected_;   // senders of invalid certificates
};

/// The skip budget every multi-slot driver arms: 192·n delivery events
/// per concurrent slot. A healthy BA round at n=48 burns a few thousand
/// deliveries per slot, and concurrent slots multiplex one delivery
/// clock, so the stall horizon scales with the slots in flight. Far
/// above one round, far below the run budget: false skips cost fresh
/// committees (harmless), late skips cost wall-clock.
inline std::uint64_t auto_skip_timeout(std::size_t n,
                                       std::size_t concurrent_slots) {
  return 192ULL * n * std::max<std::size_t>(concurrent_slots, 1);
}

}  // namespace coincidence::ba
