#include "coin/whp_coin.h"

#include <algorithm>

#include "common/errors.h"
#include "common/ser.h"

namespace coincidence::coin {

namespace {
// Value (1) + originator VRF proof (1) + sender election proof (1).
constexpr std::size_t kWhpCoinMessageWords = 3;
}  // namespace

// Payload: the coin value + its originator's VRF proof, plus the
// *sender's* committee-election proof. Value blob first (see
// sim/adversary.cpp ablation note). Fields are views: decode borrows
// straight from the message buffer and the caller verifies/folds before
// the message goes away — nothing is copied.
struct WhpCoin::Wire {
  BytesView value;
  crypto::ProcessId origin = 0;
  BytesView origin_proof;
  BytesView election_proof;

  Bytes encode() const {
    Writer w;
    w.blob(value).u32(origin).blob(origin_proof).blob(election_proof);
    return w.take();
  }

  static bool decode(BytesView payload, Wire& out) {
    try {
      Reader r(payload);
      out.value = r.blob_view();
      out.origin = r.u32();
      out.origin_proof = r.blob_view();
      out.election_proof = r.blob_view();
      r.done();
      return true;
    } catch (const CodecError&) {
      return false;
    }
  }
};

WhpCoin::WhpCoin(Config cfg, DoneFn on_done)
    : cfg_(std::move(cfg)),
      on_done_(std::move(on_done)),
      tag_first_(cfg_.tag + "/first"),
      tag_second_(cfg_.tag + "/second"),
      first_seed_(cfg_.tag + "/first"),
      second_seed_(cfg_.tag + "/second"),
      first_seen_(cfg_.params.n, false),
      second_seen_(cfg_.params.n, false) {
  COIN_REQUIRE(cfg_.vrf && cfg_.registry && cfg_.sampler,
               "WhpCoin: missing crypto environment");
  COIN_REQUIRE(cfg_.params.n > 0 && cfg_.params.W > 0,
               "WhpCoin: bad parameters");
  Writer w;
  w.str("whp-coin").u64(cfg_.round);
  vrf_input_ = w.take();
}

WhpCoin::~WhpCoin() {
  if (cfg_.batcher && queue_.pending() > 0)
    cfg_.batcher->note_discarded(queue_.pending());
}

void WhpCoin::fold_min(BytesView value, crypto::ProcessId origin,
                       BytesView origin_proof) {
  const bool less = std::lexicographical_compare(
      value.begin(), value.end(), min_value_.begin(), min_value_.end());
  const bool equal = value.size() == min_value_.size() &&
                     std::equal(value.begin(), value.end(),
                                min_value_.begin());
  if (min_value_.empty() || less || (equal && origin < min_origin_)) {
    min_value_.assign(value.begin(), value.end());
    min_origin_ = origin;
    min_origin_proof_.assign(origin_proof.begin(), origin_proof.end());
  }
}

bool WhpCoin::mark_seen(std::vector<bool>& seen, crypto::ProcessId from) {
  // Equivalent of set::insert().second; senders outside [0, n) (possible
  // only in harnesses that size params.n below the simulation) grow the
  // bitmap rather than being dropped, matching the old std::set.
  if (from >= seen.size()) seen.resize(from + 1, false);
  if (seen[from]) return false;
  seen[from] = true;
  return true;
}

void WhpCoin::start(sim::Context& ctx) {
  auto first = cfg_.sampler->sample(ctx.self(), first_seed_);
  auto second = cfg_.sampler->sample(ctx.self(), second_seed_);
  in_first_ = first.sampled;
  in_second_ = second.sampled;
  first_election_proof_ = std::move(first.proof);
  second_election_proof_ = std::move(second.proof);

  if (in_first_) {
    crypto::VrfOutput out =
        cfg_.vrf->eval(cfg_.registry->sk_of(ctx.self()), vrf_input_);
    // A first-committee member seeds its own v_i (line 3).
    fold_min(out.value, ctx.self(), out.proof);
    Wire wire{out.value, ctx.self(), out.proof, first_election_proof_};
    ctx.broadcast(tag_first_, wire.encode(), kWhpCoinMessageWords);
  }
}

void WhpCoin::apply_share(sim::Context& ctx, bool is_first,
                          crypto::ProcessId sender, BytesView value,
                          crypto::ProcessId origin, BytesView origin_proof) {
  if (is_first ? (!in_second_ || done_) : done_) return;  // state no-op
  if (is_first) {
    if (!mark_seen(first_seen_, sender)) return;
    ++first_count_;
    fold_min(value, origin, origin_proof);
    if (!sent_second_ && first_count_ == cfg_.params.W) {
      sent_second_ = true;
      for (crypto::ProcessId p = 0; p < first_seen_.size(); ++p)
        if (first_seen_[p]) first_snapshot_.insert(first_snapshot_.end(), p);
      Wire relay{min_value_, min_origin_, min_origin_proof_,
                 second_election_proof_};
      ctx.broadcast(tag_second_, relay.encode(), kWhpCoinMessageWords);
    }
    return;
  }

  // <second>: every process participates in the final wait (lines 13–17).
  if (!mark_seen(second_seen_, sender)) return;
  ++second_count_;
  fold_min(value, origin, origin_proof);
  if (second_count_ == cfg_.params.W) {
    done_ = true;
    output_ = min_value_.back() & 1;
    ctx.note_decide(cfg_.tag, output_, cfg_.round);
    if (on_done_) on_done_(output_);
  }
}

bool WhpCoin::should_flush() const {
  // Candidate threshold (see verify_queue.h): if the pending shares
  // could carry a phase across W, flush now so the threshold action
  // fires in this delivery frame, like inline verification.
  if (!sent_second_ && in_second_ &&
      first_count_ + queue_.pending_first() >= cfg_.params.W)
    return true;
  if (!done_ && second_count_ + queue_.pending_second() >= cfg_.params.W)
    return true;
  return queue_.pending() >= BatchVerifier::kWatermark;
}

void WhpCoin::flush_queue(sim::Context& ctx) {
  std::vector<PendingVerifyQueue::Share> shares = queue_.take();
  cfg_.batcher->note_flushed(shares.size());

  // The sender must prove membership in the phase's committee…
  std::vector<committee::Sampler::ValCheck> checks;
  checks.reserve(shares.size());
  for (const PendingVerifyQueue::Share& s : shares)
    checks.push_back(committee::Sampler::ValCheck{
        s.is_first ? &first_seed_ : &second_seed_, s.sender,
        s.election_proof});
  std::vector<char> election_ok;
  cfg_.batcher->verify_elections(checks, election_ok);

  // …and the carried value must be the originator's honest VRF output.
  // Shares that already failed the election check stay out of the VRF
  // batch, matching the inline short-circuit.
  std::vector<crypto::VrfBatchEntry> entries;
  std::vector<std::size_t> entry_of;
  entries.reserve(shares.size());
  entry_of.reserve(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (!election_ok[i]) continue;
    const PendingVerifyQueue::Share& s = shares[i];
    entries.push_back(crypto::VrfBatchEntry{cfg_.registry->pk_of(s.origin),
                                            vrf_input_, s.value,
                                            s.origin_proof});
    entry_of.push_back(i);
  }
  std::vector<char> vrf_ok;
  BatchVerifier::FlushStats stats =
      cfg_.batcher->verify_shares(entries, vrf_ok);

  std::vector<char> accept(shares.size(), 0);
  for (std::size_t j = 0; j < entries.size(); ++j)
    accept[entry_of[j]] = vrf_ok[j];
  std::size_t rejects = 0;
  for (char a : accept)
    if (!a) ++rejects;
  ctx.count(sim::Counter::kVerifyFlushes, 1);
  ctx.count(sim::Counter::kVerifyShares, shares.size());
  ctx.count(sim::Counter::kVerifyRejects, rejects);
  ctx.count(sim::Counter::kVerifyMemoHits, stats.memo_hits);

  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (!accept[i]) continue;
    const PendingVerifyQueue::Share& s = shares[i];
    apply_share(ctx, s.is_first, s.sender, s.value, s.origin, s.origin_proof);
  }
}

bool WhpCoin::handle(sim::Context& ctx, const sim::Message& msg) {
  const bool is_first = msg.tag == tag_first_;
  const bool is_second = msg.tag == tag_second_;
  if (!is_first && !is_second) return false;

  // Fast discard: nothing below mutates state once the coin is done, and
  // firsts only matter to second-committee consumers (line 7). Returning
  // before the decode and the two verifications is observably identical
  // — every later path for these cases returns true with no state change
  // — and spares most processes the per-message hash work.
  if (is_first ? (!in_second_ || done_) : done_) return true;

  Wire wire;
  if (!Wire::decode(msg.payload, wire)) return true;
  if (wire.origin >= cfg_.params.n) return true;
  if (is_first && wire.origin != msg.from) return true;

  if (cfg_.batcher) {
    // Deferred path. Senders already counted for the phase drop here
    // (inline: verify then fail mark_seen, no state change); senders with
    // only PENDING shares must still enqueue — their queued share might
    // fail verification where this one passes.
    const std::vector<bool>& seen = is_first ? first_seen_ : second_seen_;
    if (msg.from < seen.size() && seen[msg.from]) return true;
    PendingVerifyQueue::Share share;
    share.buf = msg.payload;  // refcount bump keeps the views alive
    share.sender = msg.from;
    share.origin = wire.origin;
    share.is_first = is_first;
    share.value = wire.value;
    share.origin_proof = wire.origin_proof;
    share.election_proof = wire.election_proof;
    queue_.enqueue(std::move(share));
    cfg_.batcher->note_enqueued();
    if (should_flush()) flush_queue(ctx);
    return true;
  }

  // The sender must prove membership in the phase's committee…
  const std::string& seed = is_first ? first_seed_ : second_seed_;
  if (!cfg_.sampler->committee_val(seed, msg.from, wire.election_proof))
    return true;
  // …and the carried value must be the originator's honest VRF output.
  if (!cfg_.vrf->verify(cfg_.registry->pk_of(wire.origin), vrf_input_,
                        wire.value, wire.origin_proof))
    return true;

  apply_share(ctx, is_first, msg.from, wire.value, wire.origin,
              wire.origin_proof);
  return true;
}

int WhpCoin::output() const {
  COIN_REQUIRE(done_, "WhpCoin: output read before completion");
  return output_;
}

}  // namespace coincidence::coin
