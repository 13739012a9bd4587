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
// Hot-path notes: echo payload fields are retained as SharedBytes
// aliases of the delivered buffer (never deep copied), the <echo,v>
// signing strings are hoisted into members, and all per-value/per-sender
// tracking uses flat arrays and bitmaps. Through the run's
// coin::BatchVerifier, an <ok> certificate (its W signed echoes and
// their elections) is checked once per run: all n receivers of one
// broadcast get the same bytes, so its verdict goes into the run-wide
// BatchVerifier::ok_memo(), keyed by (ok seed, ok payload) and looked up
// both at arrival and again at the flush of the pending-ok queue. A hit
// skips the entry parse, the distinct-sender check and the 2W election
// and signature lookups. A miss runs the W+1 elections in one folded
// batch and the W signatures through the SigMemo, then stores the
// verdict, negative ones included. Only the sender's own ok election is
// checked per delivery, since it depends on the sender. Accept/reject
// sets are those of checking every election and signature of every
// message.
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
  /// Uses the setup's params, sampler, signer and batcher (all
  /// required). Each <ok> waits in a pending-ok queue; a flush answers
  /// each certificate from the ok memo, or checks its W+1 election proofs in
  /// one committee_val_batch call and its W HMAC echo signatures through
  /// BatchVerifier::verify_signatures. Echo signatures answer from the
  /// same SigMemo.
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

  /// Stateless re-verification of a forwarded <ok> payload with the
  /// checks of handle_ok: parse, W distinct embedded senders, the
  /// sender's ok election, the W echo elections, the W echo signatures.
  /// The certificate answers from the setup batcher's ok memo and the
  /// signatures from its SigMemo. `approver_tag` names the
  /// instance the ok claims to come from (its committee-seed root, e.g.
  /// "slot7/0/a2"); `sender` is the claimed ok broadcaster, bound by its
  /// election proof. `payload` lies inside `owner`, which a memo store
  /// retains. Returns the carried value on full success.
  static std::optional<Value> verify_ok_payload(
      const coin::Setup& setup, const std::string& approver_tag,
      crypto::ProcessId sender, const SharedBytes& owner, BytesView payload);

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

  /// The head of an <ok> payload: the carried value and the sender's
  /// election proof. `head` is their encoding (the certificate
  /// fingerprint's input); `entries` is the encoding of the W entries.
  struct OkHead {
    Value v = kZero;
    BytesView election;
    BytesView head;
    BytesView entries;
  };

  /// A certificate's ok-memo verdict, once known.
  enum class Cert : std::uint8_t { kUnknown, kValid, kInvalid };

  /// An <ok> awaiting its deferred verification sweep. An unknown
  /// certificate's W proof entries live in
  /// pending_entries_[first_entry, first_entry+W).
  struct PendingOk {
    SharedBytes buf;  // keeps every view alive
    crypto::ProcessId sender = 0;
    Value v = kZero;
    BytesView election;
    std::uint64_t cert_fp = 0;
    Cert cert = Cert::kUnknown;
    bool checked = false;  // verified (and stored) by this flush
    std::size_t first_entry = 0;
    std::size_t first_check = 0;  // its sender election in check_scratch_
  };

  /// Parses the head of an <ok>: nothing on a malformed head, an invalid
  /// value or an entry count other than W.
  static std::optional<OkHead> parse_ok_head(BytesView payload,
                                             std::size_t W);
  /// Parses the W proof entries into `out`; false when malformed or when
  /// two entries share a sender. `ids` is scratch.
  static bool parse_ok_entries(BytesView entries, std::size_t W,
                               std::vector<OkProofEntry>& out,
                               std::vector<crypto::ProcessId>& ids);
  /// The certificate check without the ok memo: the W echo elections,
  /// then the W echo signatures (from the batcher's SigMemo),
  /// stopping at the first failure.
  static bool check_cert(const coin::Setup& setup,
                         const std::string& echo_seed,
                         const Bytes& signed_bytes,
                         const std::vector<OkProofEntry>& entries);
  /// The ok-memo fingerprint: the head bits and the payload length. The
  /// entries are left out because honest oks embed the same echoes.
  static std::uint64_t cert_fingerprint(const OkHead& head,
                                        std::size_t payload_size);
  /// The cached verdict of the certificate in `payload`, if any.
  std::optional<bool> lookup_cert(std::uint64_t fp, BytesView payload) const;

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

  /// The state transition of one verified <ok,v> from `sender`, applied
  /// in arrival order. `buf` is the raw ok payload, retained in
  /// applied_oks_ for lock/certificate forwarding.
  void apply_ok(sim::Context& ctx, crypto::ProcessId sender, Value v,
                const SharedBytes& buf);

  /// Answers each pending certificate from the ok memo, checks the rest
  /// through one election batch + one memoized signature batch, stores
  /// their verdicts, then applies survivors in arrival order.
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
  Bytes ok_seed_bytes_;  // ok_seed_, the first field of an ok-memo key
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

  // Deferred-verification queue. pending_entries_ is the flat arena of
  // proof entries, W per pending ok.
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
