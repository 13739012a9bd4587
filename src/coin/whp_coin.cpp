#include "coin/whp_coin.h"

#include <algorithm>

#include "common/errors.h"
#include "common/scratch_pool.h"
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
    w.reserve(Writer::blob_size(value.size()) + 4 +
              Writer::blob_size(origin_proof.size()) +
              Writer::blob_size(election_proof.size()));
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

WhpCoin::WhpCoin(const Config& cfg, DoneFn on_done)
    : setup_(cfg),
      round_(cfg.round),
      on_done_(std::move(on_done)),
      tag_(cfg.tag),
      tag_first_(sim::join_tag(cfg.tag, "/first")),
      tag_second_(sim::join_tag(cfg.tag, "/second")),
      seen_(kRows, cfg.params.n) {
  COIN_REQUIRE(setup_.vrf && setup_.registry && setup_.sampler &&
                   setup_.batcher,
               "WhpCoin: missing crypto environment");
  COIN_REQUIRE(setup_.params.n > 0 && setup_.params.W > 0,
               "WhpCoin: bad parameters");
  Writer w;
  w.reserve(Writer::blob_size(8) + 8);
  w.str("whp-coin").u64(round_);
  vrf_input_ = w.take();
}

WhpCoin::~WhpCoin() {
  if (queue_.pending() > 0) setup_.batcher->note_discarded(queue_.pending());
}

const std::set<crypto::ProcessId>& WhpCoin::phase1_snapshot() const {
  if (snapshot_set_.empty())
    for (crypto::ProcessId p = 0; p < first_snapshot_.size(); ++p)
      if (first_snapshot_[p]) snapshot_set_.insert(snapshot_set_.end(), p);
  return snapshot_set_;
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

void WhpCoin::start(sim::Context& ctx) {
  auto first = setup_.sampler->sample(ctx.self(), first_seed());
  auto second = setup_.sampler->sample(ctx.self(), second_seed());
  in_first_ = first.sampled;
  in_second_ = second.sampled;
  first_election_proof_ = std::move(first.proof);
  second_election_proof_ = std::move(second.proof);

  if (in_first_) {
    thread_local crypto::VrfOutput out;
    setup_.vrf->eval_into(setup_.registry->sk_of(ctx.self()), vrf_input_,
                          out);
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
    if (!seen_.insert(kFirstRow, sender)) return;
    ++first_count_;
    fold_min(value, origin, origin_proof);
    if (!sent_second_ && first_count_ == setup_.params.W) {
      sent_second_ = true;
      first_snapshot_ = seen_.row(kFirstRow);
      Wire relay{min_value_, min_origin_, min_origin_proof_,
                 second_election_proof_};
      ctx.broadcast(tag_second_, relay.encode(), kWhpCoinMessageWords);
    }
    return;
  }

  // <second>: every process participates in the final wait (lines 13–17).
  if (!seen_.insert(kSecondRow, sender)) return;
  ++second_count_;
  fold_min(value, origin, origin_proof);
  if (second_count_ == setup_.params.W) {
    done_ = true;
    output_ = min_value_.back() & 1;
    ctx.note_decide(tag_, output_, round_);
    if (on_done_) on_done_(output_);
  }
}

bool WhpCoin::should_flush() const {
  // Candidate threshold (see verify_queue.h): if the pending shares
  // could carry a phase across W, flush now so the threshold action
  // fires in this delivery frame.
  if (!sent_second_ && in_second_ &&
      first_count_ + queue_.pending_first() >= setup_.params.W)
    return true;
  if (!done_ && second_count_ + queue_.pending_second() >= setup_.params.W)
    return true;
  return queue_.pending() >= BatchVerifier::kWatermark;
}

void WhpCoin::flush_queue(sim::Context& ctx) {
  ScratchLease<FlushScratch> lease;
  FlushScratch& s = *lease;
  queue_.take(s.shares);
  const std::vector<PendingVerifyQueue::Share>& shares = s.shares;
  setup_.batcher->note_flushed(shares.size());

  // The sender must prove membership in the phase's committee…
  s.checks.clear();
  for (const PendingVerifyQueue::Share& sh : shares)
    s.checks.push_back(committee::Sampler::ValCheck{
        sh.is_first ? &first_seed() : &second_seed(), sh.sender,
        sh.election_proof});
  setup_.batcher->verify_elections(s.checks, s.accept);

  // …and the carried value must be the originator's honest VRF output.
  // Shares that failed the election check stay out of the VRF batch.
  s.entries.clear();
  s.entry_of.clear();
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (!s.accept[i]) continue;
    const PendingVerifyQueue::Share& sh = shares[i];
    s.entries.push_back(crypto::VrfBatchEntry{setup_.registry->pk_of(sh.origin),
                                              vrf_input_, sh.value,
                                              sh.origin_proof});
    s.entry_of.push_back(i);
  }
  const BatchVerifier::FlushStats stats =
      setup_.batcher->verify_shares(s.entries, s.verdicts);
  for (std::size_t j = 0; j < s.entries.size(); ++j)
    s.accept[s.entry_of[j]] = s.verdicts[j];
  ctx.count(sim::Counter::kVerifyFlushes, 1);
  ctx.count(sim::Counter::kVerifyShares, shares.size());
  ctx.count(sim::Counter::kVerifyRejects,
            shares.size() - s.entries.size() + stats.rejects);
  ctx.count(sim::Counter::kVerifyMemoHits, stats.memo_hits);

  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (!s.accept[i]) continue;
    const PendingVerifyQueue::Share& sh = shares[i];
    apply_share(ctx, sh.is_first, sh.sender, sh.value, sh.origin,
                sh.origin_proof);
  }
  s.shares.clear();  // drop the payload references now
}

bool WhpCoin::handle(sim::Context& ctx, const sim::Message& msg) {
  const bool is_first = msg.tag == tag_first_;
  const bool is_second = msg.tag == tag_second_;
  if (!is_first && !is_second) return false;

  // Fast discard: nothing below mutates state once the coin is done, and
  // firsts only matter to second-committee consumers (line 7). Returning
  // before the decode spares most processes the per-message work.
  if (is_first ? (!in_second_ || done_) : done_) return true;

  Wire wire;
  if (!Wire::decode(msg.payload, wire)) return true;
  if (wire.origin >= setup_.params.n) return true;
  if (is_first && wire.origin != msg.from) return true;

  // Senders already counted for the phase drop here: a verified share
  // from them would fail seen_.insert with no state change. Senders with
  // only PENDING shares must still enqueue — their queued share might
  // fail verification where this one passes.
  if (seen_.contains(is_first ? kFirstRow : kSecondRow, msg.from)) return true;
  PendingVerifyQueue::Share share;
  share.buf = msg.payload;  // refcount bump keeps the views alive
  share.sender = msg.from;
  share.origin = wire.origin;
  share.is_first = is_first;
  share.value = wire.value;
  share.origin_proof = wire.origin_proof;
  share.election_proof = wire.election_proof;
  queue_.enqueue(std::move(share));
  setup_.batcher->note_enqueued();
  if (should_flush()) flush_queue(ctx);
  return true;
}

int WhpCoin::output() const {
  COIN_REQUIRE(done_, "WhpCoin: output read before completion");
  return output_;
}

}  // namespace coincidence::coin
