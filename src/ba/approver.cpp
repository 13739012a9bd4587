#include "ba/approver.h"

#include <algorithm>

#include "common/errors.h"
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

Bytes make_echo_sign_bytes(const std::string& tag, Value v) {
  Writer w;
  w.str(tag).str("echo").u8(v);
  return w.take();
}
}  // namespace

Approver::Approver(Config cfg, Value input, DoneFn on_done)
    : cfg_(std::move(cfg)),
      input_(input),
      on_done_(std::move(on_done)),
      tag_init_(cfg_.tag + "/init"),
      tag_echo_(cfg_.tag + "/echo"),
      tag_ok_(cfg_.tag + "/ok"),
      init_seed_(cfg_.tag + "/init"),
      ok_seed_(cfg_.tag + "/ok"),
      ok_seed_bytes_(bytes_of(ok_seed_)),
      echo_seeds_{cfg_.tag + "/echo/" + value_name(kZero),
                  cfg_.tag + "/echo/" + value_name(kOne),
                  cfg_.tag + "/echo/" + value_name(kBot)},
      echo_sign_bytes_{make_echo_sign_bytes(cfg_.tag, kZero),
                       make_echo_sign_bytes(cfg_.tag, kOne),
                       make_echo_sign_bytes(cfg_.tag, kBot)} {
  COIN_REQUIRE(is_valid_value(input), "Approver: input must be 0, 1 or bot");
  COIN_REQUIRE(cfg_.registry && cfg_.sampler && cfg_.signer && cfg_.batcher,
               "Approver: missing crypto environment");
  COIN_REQUIRE(cfg_.params.W > cfg_.params.B,
               "Approver: W must exceed B (S5/S6 need the gap)");
  // Size every sender bitmap to n and every per-value echo store to W up
  // front — the steady state allocates nothing per message.
  for (Value v : {kZero, kOne, kBot}) {
    init_seen_[v].resize(cfg_.params.n, false);
    echo_seen_[v].resize(cfg_.params.n, false);
    echoes_[v].reserve(cfg_.params.W);
  }
  ok_seen_.resize(cfg_.params.n, false);
  parse_scratch_.reserve(cfg_.params.W);
  distinct_scratch_.reserve(cfg_.params.W);
}

Approver::~Approver() {
  // Round end / teardown: a retired approver drops its pending oks
  // unverified — its host already moved on. The ledger (enqueued ==
  // flushed + discarded) must still balance.
  if (!pending_oks_.empty())
    cfg_.batcher->note_discarded(pending_oks_.size());
}

void Approver::start(sim::Context& ctx) {
  auto init = cfg_.sampler->sample(ctx.self(), init_seed());
  auto ok = cfg_.sampler->sample(ctx.self(), ok_seed());
  in_init_ = init.sampled;
  in_ok_ = ok.sampled;
  init_election_proof_ = std::move(init.proof);
  ok_election_proof_ = std::move(ok.proof);

  if (in_init_) {
    Writer w;
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

bool Approver::mark_seen(std::vector<bool>& seen, crypto::ProcessId from) {
  // Equivalent of set::insert().second; senders outside [0, n) (possible
  // only in harnesses that size params.n below the simulation) grow the
  // bitmap rather than being dropped, matching the old std::set.
  if (from >= seen.size()) seen.resize(from + 1, false);
  if (seen[from]) return false;
  seen[from] = true;
  return true;
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
  if (!cfg_.sampler->committee_val(init_seed(), msg.from, election))
    return true;
  if (!mark_seen(init_seen_[v], msg.from)) return true;
  ++init_count_[v];
  if (init_count_[v] >= cfg_.params.B + 1) maybe_echo(ctx, v);
  return true;
}

void Approver::maybe_echo(sim::Context& ctx, Value v) {
  if (echoed_[v]) return;
  echoed_[v] = true;  // caches the negative so we don't re-sample
  auto election = cfg_.sampler->sample(ctx.self(), echo_seed(v));
  if (!election.sampled) return;
  Bytes sig = cfg_.signer->sign(ctx.self(), echo_sign_bytes(v));
  Writer w;
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
  if (!cfg_.sampler->committee_val(echo_seed(v), msg.from, election))
    return true;
  // The signature check answers from the run-wide SigMemo: a broadcast
  // ⟨echo,v⟩ reaches n receivers but its HMAC is recomputed once.
  // Verdicts are identical to Signer::verify.
  const bool signed_by_sender = cfg_.batcher->check_signature(
      {msg.from, BytesView(echo_sign_bytes(v)), sig});
  if (!signed_by_sender) return true;
  if (!mark_seen(echo_seen_[v], msg.from)) return true;
  // Retain the delivered buffer by refcount; signature and election stay
  // views into it — no deep copy (the old code copied both blobs).
  echoes_[v].push_back({msg.from, msg.payload, sig, election});
  if (echoes_[v].size() >= cfg_.params.W) maybe_ok(ctx, v);
  return true;
}

void Approver::maybe_ok(sim::Context& ctx, Value v) {
  if (sent_ok_ || !in_ok_) return;
  sent_ok_ = true;
  Writer w;
  w.u8(v).blob(ok_election_proof_);
  const auto& proof = echoes_[v];
  w.u32(static_cast<std::uint32_t>(cfg_.params.W));
  for (std::size_t i = 0; i < cfg_.params.W; ++i) {
    w.u32(proof[i].sender).blob(proof[i].signature).blob(
        proof[i].election_proof);
  }
  ctx.broadcast(tag_ok_, w.take(), ok_words(cfg_.params.W));
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
                                std::vector<OkProofEntry>& out,
                                std::vector<crypto::ProcessId>& ids) {
  // Entries borrow from the message buffer; nothing is copied.
  out.clear();
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
    return false;
  }
  // The embedded echoes must come from W *distinct* senders. Sort a
  // scratch of ids and scan for an adjacent duplicate.
  ids.clear();
  for (const OkProofEntry& e : out) ids.push_back(e.sender);
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

bool Approver::check_cert(const coin::Setup& setup,
                          const std::string& echo_seed,
                          const Bytes& signed_bytes,
                          const std::vector<OkProofEntry>& entries) {
  for (const OkProofEntry& e : entries)
    if (!setup.sampler->committee_val(echo_seed, e.sender, e.election_proof))
      return false;
  for (const OkProofEntry& e : entries)
    if (!setup.batcher->check_signature(
            {e.sender, BytesView(signed_bytes), e.signature}))
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
  return cfg_.batcher->ok_memo().lookup(fp,
                                        {BytesView(ok_seed_bytes_), payload});
}

bool Approver::handle_ok(sim::Context& ctx, const sim::Message& msg) {
  if (done_) return true;
  const std::optional<OkHead> head =
      parse_ok_head(msg.payload, cfg_.params.W);
  if (!head) return true;

  // Senders already counted for the phase drop here: a verified ok from
  // them would fail mark_seen with no state change. Senders with only
  // PENDING oks must still enqueue — their queued ok might fail
  // verification where this one passes.
  if (msg.from < ok_seen_.size() && ok_seen_[msg.from]) return true;
  PendingOk ok;
  ok.buf = msg.payload;  // refcount bump keeps every view alive
  ok.sender = msg.from;
  ok.v = head->v;
  ok.election = head->election;
  ok.cert_fp = cert_fingerprint(*head, msg.payload.size());
  // The memo holds only certificates that parsed, so a hit (even a
  // negative one) is an ok the parse below would have enqueued.
  if (const std::optional<bool> hit = lookup_cert(ok.cert_fp, msg.payload)) {
    ok.cert = *hit ? Cert::kValid : Cert::kInvalid;
  } else {
    // A malformed certificate or a repeated echo sender drops here, the
    // only stateless filter cheaper than a verification.
    if (!parse_ok_entries(head->entries, cfg_.params.W, parse_scratch_,
                          distinct_scratch_))
      return true;
    ok.first_entry = pending_entries_.size();
    pending_entries_.insert(pending_entries_.end(), parse_scratch_.begin(),
                            parse_scratch_.end());
  }
  pending_oks_.push_back(std::move(ok));
  cfg_.batcher->note_enqueued();
  if (should_flush()) flush_ok_queue(ctx);
  return true;
}

void Approver::apply_ok(sim::Context& ctx, crypto::ProcessId sender, Value v,
                        const SharedBytes& buf) {
  if (done_) return;  // state no-op (a flush past the threshold)
  if (!mark_seen(ok_seen_, sender)) return;
  applied_oks_.push_back({sender, v, buf});
  ++ok_count_;
  ok_mask_ |= static_cast<std::uint8_t>(1u << v);
  if (ok_count_ == cfg_.params.W) {
    done_ = true;
    // Output event: the vals set encoded as a bitmask (bit v for value v).
    int mask = 0;
    for (Value val : {kZero, kOne, kBot})
      if (ok_mask_ & (1u << val)) {
        ok_values_.insert(val);
        mask |= 1 << static_cast<int>(val);
      }
    ctx.note_decide(cfg_.tag, mask, 0);
    if (on_done_) on_done_(ok_values_);
  }
}

bool Approver::should_flush() const {
  // Candidate threshold (see verify_queue.h): if the pending oks could
  // carry the count across W, flush now so done fires in this delivery
  // frame.
  if (!done_ && ok_count_ + pending_oks_.size() >= cfg_.params.W) return true;
  return pending_oks_.size() >= coin::BatchVerifier::kWatermark;
}

void Approver::flush_ok_queue(sim::Context& ctx) {
  // Swap (not move) so both the pending queue and the flush scratch keep
  // their capacity across flushes.
  flush_oks_.clear();
  flush_entries_.clear();
  std::swap(flush_oks_, pending_oks_);
  std::swap(flush_entries_, pending_entries_);
  std::vector<PendingOk>& oks = flush_oks_;
  const std::vector<OkProofEntry>& entries = flush_entries_;
  cfg_.batcher->note_flushed(oks.size());

  const std::size_t W = cfg_.params.W;

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
  check_scratch_.clear();
  for (PendingOk& ok : oks) {
    if (ok.cert == Cert::kInvalid) continue;
    ok.first_check = check_scratch_.size();
    check_scratch_.push_back(
        committee::Sampler::ValCheck{&ok_seed(), ok.sender, ok.election});
    if (ok.cert == Cert::kValid) continue;
    ok.checked = true;
    for (std::size_t j = 0; j < W; ++j) {
      const OkProofEntry& e = entries[ok.first_entry + j];
      check_scratch_.push_back(committee::Sampler::ValCheck{
          &echo_seed(ok.v), e.sender, e.election_proof});
    }
  }
  if (!check_scratch_.empty())
    cfg_.batcher->verify_elections(check_scratch_, election_ok_scratch_);

  // Signatures enter the batch only for certificates whose echo
  // elections all passed (elections before signatures, as check_cert).
  sig_scratch_.clear();
  sig_ok_of_scratch_.clear();  // ok index per W-entry sig group
  for (std::size_t i = 0; i < oks.size(); ++i) {
    PendingOk& ok = oks[i];
    if (ok.cert != Cert::kUnknown) continue;
    bool elected = true;
    for (std::size_t j = 1; j <= W; ++j)
      if (!election_ok_scratch_[ok.first_check + j]) {
        elected = false;
        break;
      }
    if (!elected) {
      ok.cert = Cert::kInvalid;
      continue;
    }
    const Bytes& expected = echo_sign_bytes(ok.v);
    for (std::size_t j = 0; j < W; ++j) {
      const OkProofEntry& e = entries[ok.first_entry + j];
      sig_scratch_.push_back(
          crypto::SigBatchEntry{e.sender, BytesView(expected), e.signature});
    }
    sig_ok_of_scratch_.push_back(i);
  }
  coin::BatchVerifier::FlushStats stats =
      cfg_.batcher->verify_signatures(sig_scratch_, verdict_scratch_);
  for (std::size_t k = 0; k < sig_ok_of_scratch_.size(); ++k) {
    bool all = true;
    for (std::size_t j = 0; j < W; ++j)
      if (!verdict_scratch_[k * W + j]) {
        all = false;
        break;
      }
    oks[sig_ok_of_scratch_[k]].cert = all ? Cert::kValid : Cert::kInvalid;
  }
  ctx.count(sim::Counter::kSigVerifyFlushes, 1);
  ctx.count(sim::Counter::kSigVerifySigs, sig_scratch_.size());
  ctx.count(sim::Counter::kSigVerifyRejects, stats.rejects);
  ctx.count(sim::Counter::kSigVerifyMemoHits, stats.memo_hits);

  // Store the verdict of every certificate checked here. The write holds
  // the payload by refcount and owns its seed bytes: this approver may
  // retire before a deferred write applies.
  crypto::VerdictMemo& memo = cfg_.batcher->ok_memo();
  for (const PendingOk& ok : oks)
    if (ok.checked)
      memo.store_retained(ok.cert_fp, ok_seed_bytes_, ok.buf, ok.buf,
                          ok.cert == Cert::kValid);

  // Apply survivors in arrival order, each through apply_ok's guards.
  for (const PendingOk& ok : oks)
    if (ok.cert == Cert::kValid && election_ok_scratch_[ok.first_check])
      apply_ok(ctx, ok.sender, ok.v, ok.buf);
}

std::optional<Value> Approver::verify_ok_payload(
    const coin::Setup& setup, const std::string& approver_tag,
    crypto::ProcessId sender, const SharedBytes& owner, BytesView payload) {
  const std::optional<OkHead> head = parse_ok_head(payload, setup.params.W);
  if (!head) return std::nullopt;
  const std::string ok_seed = approver_tag + "/ok";
  if (!setup.sampler->committee_val(ok_seed, sender, head->election))
    return std::nullopt;

  // A memo hit answers for the whole certificate; the memo holds only
  // certificates that parsed.
  const Bytes seed_bytes = bytes_of(ok_seed);
  const std::uint64_t fp = cert_fingerprint(*head, payload.size());
  std::optional<bool> valid =
      setup.batcher->ok_memo().lookup(fp, {BytesView(seed_bytes), payload});
  if (!valid) {
    std::vector<OkProofEntry> entries;
    std::vector<crypto::ProcessId> ids;
    if (!parse_ok_entries(head->entries, setup.params.W, entries, ids))
      return std::nullopt;
    valid = check_cert(setup, approver_tag + "/echo/" + value_name(head->v),
                       make_echo_sign_bytes(approver_tag, head->v), entries);
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
