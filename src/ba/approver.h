// Algorithm 3: the committee-based approver (an adaptation of MMR's
// SBV-broadcast to committees).
//
// Three phases, four committees (Fig. 1): init, echo(0)/echo(1) — one
// echo committee *per value* so a correct member broadcasts at most once
// per role (process replaceability) — and ok.
//
//   init  member:  broadcast <init, v_input>
//   echo(v) member: on <init, v> from B+1 distinct senders,
//                   broadcast a *signed* <echo, v>
//   ok    member:  on <echo, v> from W distinct echo(v) members, if no
//                   <ok, *> sent yet, broadcast <ok, v> carrying the W
//                   signed echoes as a validity proof
//   everyone:      on <ok, *> from W distinct valid senders, return the
//                   set of values carried
//
// Under Assumption 1 (correct processes invoke with <= 2 distinct values)
// this satisfies validity, graded agreement and termination whp
// (Lemmas 6.2–6.4). Word complexity O(nλ²) — the λ² comes from the W
// signatures inside each ok message.
//
// Hot-path notes (the ba_whp throughput tentpole): echo payload fields
// are retained as SharedBytes aliases of the delivered buffer (never deep
// copied), the <echo,v> signing strings are hoisted into members, all
// per-value/per-sender tracking uses flat arrays and bitmaps, and — when
// a coin::BatchVerifier is configured — the W-signature sweep of each
// <ok> is deferred into a pending queue flushed at threshold/watermark,
// where the run-wide SigMemo collapses the n·W redundant HMAC checks to
// ~W (every ok embeds the SAME signed echoes). Accept/reject sets and
// all protocol state evolution are bit-identical to inline verification.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ba/value.h"
#include "coin/setup.h"
#include "sim/process.h"

namespace coincidence::ba {

class Approver {
 public:
  /// Uses the setup's params, sampler, signer and batcher. With a
  /// batcher, the W+1 election proofs inside each <ok> are checked in one
  /// committee_val_batch call, the W HMAC echo signatures wait in a
  /// pending-ok queue flushed through BatchVerifier::verify_signatures
  /// (SigMemo-dedup'd across ok messages and receivers), and echo
  /// signatures answer from the same memo.
  struct Config : coin::Setup {
    std::string tag{};  // instance routing prefix (and committee seed root)
  };

  using DoneFn = std::function<void(const std::set<Value>&)>;

  /// A verified <ok> this approver counted toward its W threshold. The
  /// buffer is the raw ok payload (refcount-retained), so it can be
  /// re-verified by third parties: ba_whp forwards applied oks as
  /// round-skip locks and decision certificates.
  struct AppliedOk {
    crypto::ProcessId sender = 0;
    Value v = kZero;
    SharedBytes buf;
  };

  /// `input` is this process's approve() argument (0, 1 or ⊥).
  Approver(Config cfg, Value input, DoneFn on_done = {});
  ~Approver();

  void start(sim::Context& ctx);
  bool handle(sim::Context& ctx, const sim::Message& msg);
  bool done() const { return done_; }
  /// The non-empty returned set; requires done().
  const std::set<Value>& output() const;

  /// The verified oks applied so far, in application order (at most W).
  const std::vector<AppliedOk>& applied_oks() const { return applied_oks_; }

  /// Stateless re-verification of a forwarded <ok> payload, exactly the
  /// inline path of handle_ok: parse, W distinct embedded senders, the
  /// sender's ok election, the W echo elections, the W echo signatures.
  /// `approver_tag` names the instance the ok claims to come from (its
  /// committee-seed root, e.g. "slot7/0/a2"); `sender` is the claimed ok
  /// broadcaster, bound by its election proof. Returns the carried value
  /// on full success.
  static std::optional<Value> verify_ok_payload(
      const committee::Sampler& sampler, const crypto::Signer& signer,
      const committee::Params& params, const std::string& approver_tag,
      crypto::ProcessId sender, BytesView payload);

  /// Whitebox accessors for tests.
  bool in_init_committee() const { return in_init_; }
  bool in_ok_committee() const { return in_ok_; }
  bool sent_ok() const { return sent_ok_; }
  std::size_t pending_oks() const { return pending_oks_.size(); }

 private:
  /// A collected signed echo. `buf` aliases the delivered message buffer
  /// (refcount bump), keeping the two views alive without a deep copy.
  struct SignedEcho {
    crypto::ProcessId sender = 0;
    SharedBytes buf;
    BytesView signature;
    BytesView election_proof;
  };

  /// One ok-proof entry, borrowed from a retained message buffer.
  struct OkProofEntry {
    crypto::ProcessId sender = 0;
    BytesView signature;
    BytesView election_proof;
  };

  /// A decoded <ok> awaiting its deferred verification sweep. Its W
  /// proof entries live in pending_entries_[first_entry, first_entry+W).
  struct PendingOk {
    SharedBytes buf;  // keeps every view alive
    crypto::ProcessId sender = 0;
    Value v = kZero;
    BytesView election;
    std::size_t first_entry = 0;
  };

  const std::string& init_seed() const { return init_seed_; }
  const std::string& echo_seed(Value v) const { return echo_seeds_[v]; }
  const std::string& ok_seed() const { return ok_seed_; }

  /// The byte string an echo(v) member signs (hoisted member).
  const Bytes& echo_sign_bytes(Value v) const { return echo_sign_bytes_[v]; }

  /// insert().second over a growable bitmap (same contract as the old
  /// std::set: out-of-range senders grow the map, never dropped).
  static bool mark_seen(std::vector<bool>& seen, crypto::ProcessId from);

  void maybe_echo(sim::Context& ctx, Value v);
  void maybe_ok(sim::Context& ctx, Value v);
  bool handle_init(sim::Context& ctx, const sim::Message& msg);
  bool handle_echo(sim::Context& ctx, const sim::Message& msg);
  bool handle_ok(sim::Context& ctx, const sim::Message& msg);

  /// The state transition of one verified <ok,v> from `sender` — shared
  /// verbatim by the inline and deferred paths (arrival order + the same
  /// guards = bit-identical evolution). `buf` is the raw ok payload,
  /// retained in applied_oks_ for lock/certificate forwarding.
  void apply_ok(sim::Context& ctx, crypto::ProcessId sender, Value v,
                const SharedBytes& buf);

  /// Deferred path: flush every pending ok through one election batch +
  /// one memoized signature batch, then apply survivors in arrival order.
  void flush_ok_queue(sim::Context& ctx);
  bool should_flush() const;

  Config cfg_;
  Value input_;
  DoneFn on_done_;

  // Interned tags, committee seeds and signing strings, built once at
  // construction: handle() dispatches by integer id and the verifiers
  // re-use the strings without per-message allocation.
  sim::Tag tag_init_;
  sim::Tag tag_echo_;
  sim::Tag tag_ok_;
  std::string init_seed_;
  std::string ok_seed_;
  std::array<std::string, 3> echo_seeds_;      // indexed by Value {0, 1, ⊥}
  std::array<Bytes, 3> echo_sign_bytes_;       // <tag|"echo"|v> preimages

  bool in_init_ = false;
  bool in_ok_ = false;
  Bytes init_election_proof_;
  Bytes ok_election_proof_;

  // init phase: distinct init-committee senders per value (bitmap+count).
  std::array<std::vector<bool>, 3> init_seen_;
  std::array<std::uint32_t, 3> init_count_{};
  std::array<bool, 3> echoed_{};  // values this process already echoed

  // echo phase: collected signed echoes per value.
  std::array<std::vector<SignedEcho>, 3> echoes_;
  std::array<std::vector<bool>, 3> echo_seen_;
  bool sent_ok_ = false;

  // ok phase.
  std::vector<bool> ok_seen_;
  std::vector<AppliedOk> applied_oks_;  // counted oks, application order
  std::uint32_t ok_count_ = 0;
  std::uint8_t ok_mask_ = 0;       // bit v set ⟺ v carried by a valid ok
  std::set<Value> ok_values_;      // materialized from ok_mask_ at done

  // Deferred-verification queue (batcher only). pending_entries_ is the
  // flat arena of proof entries, W per pending ok.
  std::vector<PendingOk> pending_oks_;
  std::vector<OkProofEntry> pending_entries_;

  // Reused scratch (capacity persists across messages and flushes — the
  // last avoidable allocations on the ok path). flush_oks_/flush_entries_
  // swap with the pending queue so both sides keep their capacity.
  std::vector<OkProofEntry> parse_scratch_;
  std::vector<crypto::ProcessId> distinct_scratch_;
  std::vector<PendingOk> flush_oks_;
  std::vector<OkProofEntry> flush_entries_;
  std::vector<committee::Sampler::ValCheck> check_scratch_;
  std::vector<crypto::SigBatchEntry> sig_scratch_;
  std::vector<char> election_ok_scratch_;
  std::vector<char> verdict_scratch_;
  std::vector<char> accept_scratch_;
  std::vector<std::size_t> sig_ok_of_scratch_;

  bool done_ = false;
};

/// A Process hosting exactly one approver instance — the standalone
/// harness used by approver tests and the Fig. 1 bench.
class ApproverHost final : public sim::Process {
 public:
  ApproverHost(Approver::Config cfg, Value input)
      : approver_(std::move(cfg), input) {}

  void on_start(sim::Context& ctx) override { approver_.start(ctx); }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    approver_.handle(ctx, msg);
  }

  Approver& approver() { return approver_; }
  const Approver& approver() const { return approver_; }

 private:
  Approver approver_;
};

}  // namespace coincidence::ba
