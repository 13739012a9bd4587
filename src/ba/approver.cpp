#include "ba/approver.h"

#include <algorithm>

#include "common/errors.h"
#include "common/scratch_pool.h"
#include "common/ser.h"

namespace coincidence::ba {

namespace {
// Word accounting (§6.1): init = value + election proof; echo adds a
// signature. The ok proof carries W (signature + election proof) pairs —
// the O(λ) words that make the approver O(n log² n) overall.
constexpr std::size_t kInitWords = 2;
constexpr std::size_t kEchoWords = 3;
std::size_t ok_words(std::size_t proof_entries) {
  return 2 + 2 * proof_entries;
}

// The <tag|"echo"|v> preimage an echo(v) member signs.
void put_echo_sign_bytes(Writer& w, std::string_view tag, Value v) {
  w.str(tag).str("echo").u8(v);
}
std::size_t echo_sign_size(std::string_view tag) {
  return Writer::blob_size(tag.size()) + Writer::blob_size(4) + 1;
}

constexpr std::array<Value, 3> kValues = {kZero, kOne, kBot};
}  // namespace

struct Approver::OkQueue {
  std::vector<PendingOk> oks;
  std::vector<OkProofEntry> entries;  // W per unknown certificate
};

struct Approver::OkFlush {
  std::vector<committee::Sampler::ValCheck> checks;
  std::vector<char> elected;  // verdict per check
  std::vector<crypto::SigBatchEntry> sigs;
  std::vector<char> verdicts;          // verdict per signature
  std::vector<std::size_t> sig_ok_of;  // ok index per W-entry sig group
};

Approver::Approver(const Config& cfg, Value input, DoneFn on_done)
    : setup_(cfg),
      input_(input),
      on_done_(std::move(on_done)),
      tag_(cfg.tag),
      tag_init_(sim::join_tag(cfg.tag, "/init")),
      tag_echo_(sim::join_tag(cfg.tag, "/echo")),
      tag_ok_(sim::join_tag(cfg.tag, "/ok")),
      sign_len_(echo_sign_size(cfg.tag)),
      seen_(kRows, cfg.params.n) {
  COIN_REQUIRE(is_valid_value(input), "Approver: input must be 0, 1 or bot");
  COIN_REQUIRE(setup_.registry && setup_.sampler && setup_.signer &&
                   setup_.batcher,
               "Approver: missing crypto environment");
  COIN_REQUIRE(setup_.params.W > setup_.params.B,
               "Approver: W must exceed B (S5/S6 need the gap)");
  Writer w;
  w.reserve(kValues.size() * sign_len_);
  for (Value v : kValues) {
    echo_seeds_[v] = sim::join_tag(tag_echo_.str(), "/", value_name(v));
    put_echo_sign_bytes(w, cfg.tag, v);
  }
  echo_sign_bytes_ = w.take();
}

Approver::~Approver() {
  // Round end / teardown: a retired approver drops its pending oks
  // unverified — its host already moved on. The ledger (enqueued ==
  // flushed + discarded) must still balance.
  if (!pending_) return;
  setup_.batcher->note_discarded(pending_->oks.size());
  pending_->oks.clear();  // drop the payload references
  pending_->entries.clear();
  ScratchPool<OkQueue>::give(std::move(pending_));
}

void Approver::start(sim::Context& ctx) {
  auto init = setup_.sampler->sample(ctx.self(), init_seed());
  auto ok = setup_.sampler->sample(ctx.self(), ok_seed());
  in_init_ = init.sampled;
  in_ok_ = ok.sampled;
  init_election_proof_ = std::move(init.proof);
  ok_election_proof_ = std::move(ok.proof);

  if (in_init_) {
    Writer w;
    w.reserve(1 + Writer::blob_size(init_election_proof_.size()));
    w.u8(input_).blob(init_election_proof_);
    ctx.broadcast(tag_init_, w.take(), kInitWords);
  }
}

bool Approver::handle(sim::Context& ctx, const sim::Message& msg) {
  if (msg.tag == tag_init_) return handle_init(ctx, msg);
  if (msg.tag == tag_echo_) return handle_echo(ctx, msg);
  if (msg.tag == tag_ok_) return handle_ok(ctx, msg);
  return false;
}

BytesView Approver::ok_seed_bytes() const { return view_of(ok_seed()); }

std::size_t Approver::pending_oks() const {
  return pending_ ? pending_->oks.size() : 0;
}

bool Approver::handle_init(sim::Context& ctx, const sim::Message& msg) {
  Value v;
  BytesView election;
  try {
    Reader r(msg.payload);
    v = r.u8();
    election = r.blob_view();
    r.done();
  } catch (const CodecError&) {
    return true;
  }
  if (!is_valid_value(v)) return true;
  if (!setup_.sampler->committee_val(init_seed(), msg.from, election))
    return true;
  if (!seen_.insert(kInitRow + v, msg.from)) return true;
  ++init_count_[v];
  if (init_count_[v] >= setup_.params.B + 1) maybe_echo(ctx, v);
  return true;
}

void Approver::maybe_echo(sim::Context& ctx, Value v) {
  if (echoed_[v]) return;
  echoed_[v] = true;  // caches the negative so we don't re-sample
  auto election = setup_.sampler->sample(ctx.self(), echo_seed(v));
  if (!election.sampled) return;
  const crypto::Digest sig =
      setup_.signer->sign_digest(ctx.self(), echo_sign_bytes(v));
  Writer w;
  w.reserve(1 + Writer::blob_size(election.proof.size()) +
            Writer::blob_size(sig.size()));
  w.u8(v).blob(election.proof).blob(sig);
  ctx.broadcast(tag_echo_, w.take(), kEchoWords);
}

bool Approver::handle_echo(sim::Context& ctx, const sim::Message& msg) {
  Value v;
  BytesView election, sig;
  try {
    Reader r(msg.payload);
    v = r.u8();
    election = r.blob_view();
    sig = r.blob_view();
    r.done();
  } catch (const CodecError&) {
    return true;
  }
  if (!is_valid_value(v)) return true;
  if (!setup_.sampler->committee_val(echo_seed(v), msg.from, election))
    return true;
  // The signature check answers from the run-wide SigMemo: a broadcast
  // ⟨echo,v⟩ reaches n receivers but its HMAC is recomputed once.
  // Verdicts are identical to Signer::verify.
  const bool signed_by_sender =
      setup_.batcher->check_signature({msg.from, echo_sign_bytes(v), sig});
  if (!signed_by_sender) return true;
  if (!seen_.insert(kEchoRow + v, msg.from)) return true;
  if (!in_ok_ || sent_ok_) return true;  // no ok of ours will cite it
  // Retain the delivered buffer by refcount; signature and election stay
  // views into it — no deep copy (the old code copied both blobs).
  std::vector<SignedEcho>& echoes = echoes_[v];
  if (echoes.empty()) echoes.reserve(setup_.params.W);
  echoes.push_back({msg.from, msg.payload, sig, election});
  if (echoes.size() >= setup_.params.W) maybe_ok(ctx, v);
  return true;
}

void Approver::maybe_ok(sim::Context& ctx, Value v) {
  if (sent_ok_ || !in_ok_) return;
  sent_ok_ = true;
  const std::size_t W = setup_.params.W;
  const std::vector<SignedEcho>& proof = echoes_[v];
  std::size_t size = 1 + Writer::blob_size(ok_election_proof_.size()) + 4;
  for (std::size_t i = 0; i < W; ++i)
    size += 4 + Writer::blob_size(proof[i].signature.size()) +
            Writer::blob_size(proof[i].election_proof.size());
  Writer w;
  w.reserve(size);
  w.u8(v).blob(ok_election_proof_);
  w.u32(static_cast<std::uint32_t>(W));
  for (std::size_t i = 0; i < W; ++i) {
    w.u32(proof[i].sender).blob(proof[i].signature).blob(
        proof[i].election_proof);
  }
  ctx.broadcast(tag_ok_, w.take(), ok_words(W));
  echoes_[v] = {};  // the ok is out; its echoes are no longer needed
}

std::optional<Approver::OkHead> Approver::parse_ok_head(BytesView payload,
                                                       std::size_t W) {
  try {
    Reader r(payload);
    OkHead h;
    h.v = r.u8();
    h.election = r.blob_view();
    h.head = r.consumed();
    if (r.u32() != W) return std::nullopt;  // wrong proof arity
    h.entries = r.rest();
    if (!is_valid_value(h.v)) return std::nullopt;
    return h;
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

bool Approver::parse_ok_entries(BytesView entries, std::size_t W,
                                std::vector<OkProofEntry>& out) {
  // Entries borrow from the message buffer; nothing is copied.
  const std::size_t first = out.size();
  try {
    Reader r(entries);
    for (std::size_t i = 0; i < W; ++i) {
      OkProofEntry e;
      e.sender = r.u32();
      e.signature = r.blob_view();
      e.election_proof = r.blob_view();
      out.push_back(e);
    }
    r.done();
  } catch (const CodecError&) {
    out.resize(first);
    return false;
  }
  // The embedded echoes must come from W *distinct* senders. Sort a
  // scratch of ids and scan for an adjacent duplicate.
  thread_local std::vector<crypto::ProcessId> ids;
  ids.clear();
  for (std::size_t i = first; i < out.size(); ++i) ids.push_back(out[i].sender);
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) == ids.end()) return true;
  out.resize(first);
  return false;
}

bool Approver::check_cert(const coin::Setup& setup,
                          const std::string& echo_seed, BytesView signed_bytes,
                          std::span<const OkProofEntry> entries) {
  for (const OkProofEntry& e : entries)
    if (!setup.sampler->committee_val(echo_seed, e.sender, e.election_proof))
      return false;
  for (const OkProofEntry& e : entries)
    if (!setup.batcher->check_signature({e.sender, signed_bytes, e.signature}))
      return false;
  return true;
}

std::uint64_t Approver::cert_fingerprint(const OkHead& head,
                                         std::size_t payload_size) {
  return crypto::VerdictMemo::fingerprint(
      {head.head, crypto::VerdictMemo::IntField(payload_size)});
}

std::optional<bool> Approver::lookup_cert(std::uint64_t fp,
                                          BytesView payload) const {
  return setup_.batcher->ok_memo().lookup(fp, {ok_seed_bytes(), payload});
}

bool Approver::handle_ok(sim::Context& ctx, const sim::Message& msg) {
  if (done_) return true;
  const std::optional<OkHead> head =
      parse_ok_head(msg.payload, setup_.params.W);
  if (!head) return true;

  // Senders already counted for the phase drop here: a verified ok from
  // them would fail seen_.insert with no state change. Senders with only
  // PENDING oks must still enqueue — their queued ok might fail
  // verification where this one passes.
  if (seen_.contains(kOkRow, msg.from)) return true;
  PendingOk ok;
  ok.buf = msg.payload;  // refcount bump keeps every view alive
  ok.sender = msg.from;
  ok.v = head->v;
  ok.election = head->election;
  ok.cert_fp = cert_fingerprint(*head, msg.payload.size());
  if (!pending_) {
    pending_ = ScratchPool<OkQueue>::take();
    // The queue flushes by min(W, kWatermark) oks; a new one is sized
    // for that once.
    const std::size_t most =
        std::min(setup_.params.W, coin::BatchVerifier::kWatermark);
    pending_->oks.reserve(most);
    pending_->entries.reserve(most * setup_.params.W);
  }
  // The memo holds only certificates that parsed, so a hit (even a
  // negative one) is an ok the parse below would have enqueued.
  if (const std::optional<bool> hit = lookup_cert(ok.cert_fp, msg.payload)) {
    ok.cert = *hit ? Cert::kValid : Cert::kInvalid;
  } else {
    // A malformed certificate or a repeated echo sender drops here, the
    // only stateless filter cheaper than a verification.
    ok.first_entry = pending_->entries.size();
    if (!parse_ok_entries(head->entries, setup_.params.W, pending_->entries))
      return true;
  }
  pending_->oks.push_back(std::move(ok));
  setup_.batcher->note_enqueued();
  if (should_flush()) flush_ok_queue(ctx);
  return true;
}

void Approver::apply_ok(sim::Context& ctx, crypto::ProcessId sender, Value v,
                        const SharedBytes& buf) {
  if (done_) return;  // state no-op (a flush past the threshold)
  if (!seen_.insert(kOkRow, sender)) return;
  if (applied_oks_.empty()) applied_oks_.reserve(setup_.params.W);
  applied_oks_.push_back({sender, v, buf});
  ++ok_count_;
  ok_mask_ |= static_cast<std::uint8_t>(1u << v);
  if (ok_count_ == setup_.params.W) {
    done_ = true;
    // Output event: the vals set encoded as a bitmask (bit v for value v).
    int mask = 0;
    for (Value val : kValues)
      if (ok_mask_ & (1u << val)) {
        ok_values_.insert(val);
        mask |= 1 << static_cast<int>(val);
      }
    ctx.note_decide(tag_, mask, 0);
    if (on_done_) on_done_(ok_values_);
  }
}

bool Approver::should_flush() const {
  // Candidate threshold (see verify_queue.h): if the pending oks could
  // carry the count across W, flush now so done fires in this delivery
  // frame.
  if (!done_ && ok_count_ + pending_oks() >= setup_.params.W) return true;
  return pending_oks() >= coin::BatchVerifier::kWatermark;
}

void Approver::flush_ok_queue(sim::Context& ctx) {
  // The queue leaves the approver, and the flush leases its buffers: a
  // completion callback below may start (and flush) another approver,
  // which takes a queue and buffers of its own.
  std::unique_ptr<OkQueue> queue = std::move(pending_);
  std::vector<PendingOk>& oks = queue->oks;
  const std::vector<OkProofEntry>& entries = queue->entries;
  ScratchLease<OkFlush> lease;
  OkFlush& s = *lease;
  setup_.batcher->note_flushed(oks.size());

  const std::size_t W = setup_.params.W;

  // Look up again: most receivers queue a certificate before any of them
  // has flushed it, so an arrival miss is often a hit by now.
  for (PendingOk& ok : oks)
    if (ok.cert == Cert::kUnknown)
      if (const std::optional<bool> hit = lookup_cert(ok.cert_fp, ok.buf))
        ok.cert = *hit ? Cert::kValid : Cert::kInvalid;

  // One folded election batch: each live ok's sender election, plus the
  // W embedded echo elections of each unknown certificate. Checking past
  // a certificate's first failure changes no verdict (committee_val is
  // pure), only cache population.
  s.checks.clear();
  for (PendingOk& ok : oks) {
    if (ok.cert == Cert::kInvalid) continue;
    ok.first_check = s.checks.size();
    s.checks.push_back(
        committee::Sampler::ValCheck{&ok_seed(), ok.sender, ok.election});
    if (ok.cert == Cert::kValid) continue;
    ok.checked = true;
    for (std::size_t j = 0; j < W; ++j) {
      const OkProofEntry& e = entries[ok.first_entry + j];
      s.checks.push_back(committee::Sampler::ValCheck{
          &echo_seed(ok.v), e.sender, e.election_proof});
    }
  }
  if (!s.checks.empty())
    setup_.batcher->verify_elections(s.checks, s.elected);

  // Signatures enter the batch only for certificates whose echo
  // elections all passed (elections before signatures, as check_cert).
  s.sigs.clear();
  s.sig_ok_of.clear();
  for (std::size_t i = 0; i < oks.size(); ++i) {
    PendingOk& ok = oks[i];
    if (ok.cert != Cert::kUnknown) continue;
    bool elected = true;
    for (std::size_t j = 1; j <= W; ++j)
      if (!s.elected[ok.first_check + j]) {
        elected = false;
        break;
      }
    if (!elected) {
      ok.cert = Cert::kInvalid;
      continue;
    }
    const BytesView expected = echo_sign_bytes(ok.v);
    for (std::size_t j = 0; j < W; ++j) {
      const OkProofEntry& e = entries[ok.first_entry + j];
      s.sigs.push_back(crypto::SigBatchEntry{e.sender, expected, e.signature});
    }
    s.sig_ok_of.push_back(i);
  }
  coin::BatchVerifier::FlushStats stats =
      setup_.batcher->verify_signatures(s.sigs, s.verdicts);
  for (std::size_t k = 0; k < s.sig_ok_of.size(); ++k) {
    bool all = true;
    for (std::size_t j = 0; j < W; ++j)
      if (!s.verdicts[k * W + j]) {
        all = false;
        break;
      }
    oks[s.sig_ok_of[k]].cert = all ? Cert::kValid : Cert::kInvalid;
  }
  ctx.count(sim::Counter::kSigVerifyFlushes, 1);
  ctx.count(sim::Counter::kSigVerifySigs, s.sigs.size());
  ctx.count(sim::Counter::kSigVerifyRejects, stats.rejects);
  ctx.count(sim::Counter::kSigVerifyMemoHits, stats.memo_hits);

  // Store the verdict of every certificate checked here. The write holds
  // the payload by refcount (and, when deferred, owns its seed bytes):
  // this approver may retire before a deferred write applies.
  crypto::VerdictMemo& memo = setup_.batcher->ok_memo();
  for (const PendingOk& ok : oks)
    if (ok.checked)
      memo.store_retained(ok.cert_fp, ok_seed_bytes(), ok.buf, ok.buf,
                          ok.cert == Cert::kValid);

  // Apply survivors in arrival order, each through apply_ok's guards.
  for (const PendingOk& ok : oks)
    if (ok.cert == Cert::kValid && s.elected[ok.first_check])
      apply_ok(ctx, ok.sender, ok.v, ok.buf);
  oks.clear();  // drop the payload references
  queue->entries.clear();
  ScratchPool<OkQueue>::give(std::move(queue));
}

std::optional<Value> Approver::verify_ok_payload(
    const coin::Setup& setup, const std::string& approver_tag,
    crypto::ProcessId sender, const SharedBytes& owner, BytesView payload) {
  const std::optional<OkHead> head = parse_ok_head(payload, setup.params.W);
  if (!head) return std::nullopt;
  const std::string& ok_seed = sim::join_tag(approver_tag, "/ok").str();
  if (!setup.sampler->committee_val(ok_seed, sender, head->election))
    return std::nullopt;

  // A memo hit answers for the whole certificate; the memo holds only
  // certificates that parsed.
  const BytesView seed_bytes = view_of(ok_seed);
  const std::uint64_t fp = cert_fingerprint(*head, payload.size());
  std::optional<bool> valid =
      setup.batcher->ok_memo().lookup(fp, {seed_bytes, payload});
  if (!valid) {
    thread_local std::vector<OkProofEntry> entries;
    entries.clear();
    if (!parse_ok_entries(head->entries, setup.params.W, entries))
      return std::nullopt;
    Writer w;
    put_echo_sign_bytes(w, approver_tag, head->v);
    valid = check_cert(
        setup,
        sim::join_tag(approver_tag, "/echo/", value_name(head->v)).str(),
        w.bytes(), entries);
    setup.batcher->ok_memo().store_retained(fp, seed_bytes, owner, payload,
                                            *valid);
  }
  if (!*valid) return std::nullopt;
  return head->v;
}

const std::set<Value>& Approver::output() const {
  COIN_REQUIRE(done_, "Approver: output read before completion");
  return ok_values_;
}

}  // namespace coincidence::ba
