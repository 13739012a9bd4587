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
// Hot-path notes. A delivery allocates nothing in the steady state:
// echo payload fields are retained as SharedBytes aliases of the
// delivered buffer (never deep copied), the committee seeds are the
// interned tag strings "<tag>/init", "<tag>/echo/<v>" and "<tag>/ok"
// (sim/tag_table.h: built once per process, then looked up), the three
// <echo,v> signing strings share one buffer, all per-value/per-sender
// tracking lives in one bitmap, and every message is sized before it is
// encoded (Writer::reserve), an <ok> with its W entries included. The
// pending-ok queue is a pooled object (common/scratch_pool.h): taken at
// the first pending ok, sized once for a full flush, and given back by
// the flush that empties it, which leases its own check buffers the
// same way. So a queue's capacity outlives its approver, and what an
// instance still allocates is a handful of buffers sized once: its
// bitmap and signing strings at construction, its election proofs at
// start(), its echo and applied-ok lists at first use, and the messages
// it sends. docs/SIM_FAST_PATH.md §6 gives the budget a test gates.
// Through the run's
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
#include <span>
#include <string>
#include <vector>

#include "ba/value.h"
#include "coin/setup.h"
#include "common/sender_rows.h"
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

  /// `input` is this process's approve() argument (0, 1 or ⊥). The
  /// config is read, not kept: a host re-tags one Config per round.
  Approver(const Config& cfg, Value input, DoneFn on_done = {});
  ~Approver();

  void start(sim::Context& ctx);
  bool handle(sim::Context& ctx, const sim::Message& msg);
  bool done() const { return done_; }
  /// The non-empty returned set; requires done().
  const std::set<Value>& output() const;

  /// The verified oks applied so far, in application order (at most W).
  const std::vector<AppliedOk>& applied_oks() const { return applied_oks_; }
  /// Moves the applied oks out, for a host that keeps them past this
  /// instance (a decision certificate); applied_oks() is empty after.
  std::vector<AppliedOk> take_applied_oks() { return std::move(applied_oks_); }

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
  std::size_t pending_oks() const;

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
  /// certificate's W proof entries live in its batch's
  /// entries[first_entry, first_entry+W).
  struct PendingOk {
    SharedBytes buf;  // keeps every view alive
    crypto::ProcessId sender = 0;
    Value v = kZero;
    BytesView election;
    std::uint64_t cert_fp = 0;
    Cert cert = Cert::kUnknown;
    bool checked = false;  // verified (and stored) by this flush
    std::size_t first_entry = 0;
    std::size_t first_check = 0;  // its sender election in the checks
  };

  /// The pending oks, and the buffers of one flush.
  struct OkQueue;
  struct OkFlush;

  /// Parses the head of an <ok>: nothing on a malformed head, an invalid
  /// value or an entry count other than W.
  static std::optional<OkHead> parse_ok_head(BytesView payload,
                                             std::size_t W);
  /// Appends the W proof entries to `out`; false (leaving `out` as it
  /// was) when malformed or when two entries share a sender.
  static bool parse_ok_entries(BytesView entries, std::size_t W,
                               std::vector<OkProofEntry>& out);
  /// The certificate check without the ok memo: the W echo elections,
  /// then the W echo signatures (from the batcher's SigMemo),
  /// stopping at the first failure.
  static bool check_cert(const coin::Setup& setup,
                         const std::string& echo_seed, BytesView signed_bytes,
                         std::span<const OkProofEntry> entries);
  /// The ok-memo fingerprint: the head bits and the payload length. The
  /// entries are left out because honest oks embed the same echoes.
  static std::uint64_t cert_fingerprint(const OkHead& head,
                                        std::size_t payload_size);
  /// The cached verdict of the certificate in `payload`, if any.
  std::optional<bool> lookup_cert(std::uint64_t fp, BytesView payload) const;

  const std::string& init_seed() const { return tag_init_.str(); }
  const std::string& echo_seed(Value v) const { return echo_seeds_[v].str(); }
  const std::string& ok_seed() const { return tag_ok_.str(); }
  /// ok_seed() as bytes, the first field of an ok-memo key.
  BytesView ok_seed_bytes() const;

  /// The byte string an echo(v) member signs.
  BytesView echo_sign_bytes(Value v) const {
    return BytesView(echo_sign_bytes_).subspan(v * sign_len_, sign_len_);
  }

  // Rows of seen_: init(v), echo(v) and ok.
  static constexpr std::size_t kInitRow = 0;
  static constexpr std::size_t kEchoRow = 3;
  static constexpr std::size_t kOkRow = 6;
  static constexpr std::size_t kRows = 7;

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

  coin::Setup setup_;
  Value input_;
  DoneFn on_done_;

  // Interned tags, which double as the committee seeds: handle()
  // dispatches by integer id and the verifiers take the tag strings.
  sim::Tag tag_;  // the instance tag, the scope of its decide event
  sim::Tag tag_init_;
  sim::Tag tag_echo_;
  sim::Tag tag_ok_;
  std::array<sim::Tag, 3> echo_seeds_;  // indexed by Value {0, 1, ⊥}
  Bytes echo_sign_bytes_;  // the three <tag|"echo"|v> preimages, in order
  std::size_t sign_len_ = 0;

  bool in_init_ = false;
  bool in_ok_ = false;
  Bytes init_election_proof_;
  Bytes ok_election_proof_;

  SenderRows seen_;  // distinct senders per phase and value

  // init phase: distinct init-committee senders per value.
  std::array<std::uint32_t, 3> init_count_{};
  std::array<bool, 3> echoed_{};  // values this process already echoed

  // echo phase: signed echoes per value, kept only by an ok-committee
  // member that has not sent its ok (nobody else reads them).
  std::array<std::vector<SignedEcho>, 3> echoes_;
  bool sent_ok_ = false;

  // ok phase.
  std::vector<AppliedOk> applied_oks_;  // counted oks, application order
  std::uint32_t ok_count_ = 0;
  std::uint8_t ok_mask_ = 0;       // bit v set ⟺ v carried by a valid ok
  std::set<Value> ok_values_;      // materialized from ok_mask_ at done

  // Deferred-verification queue, taken from this thread's ScratchPool
  // at the first pending ok and given back by the flush that empties it.
  std::unique_ptr<OkQueue> pending_;

  bool done_ = false;
};

/// A Process hosting exactly one approver instance — the standalone
/// harness used by approver tests and the Fig. 1 bench.
class ApproverHost final : public sim::Process {
 public:
  ApproverHost(const Approver::Config& cfg, Value input)
      : approver_(cfg, input) {}

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
