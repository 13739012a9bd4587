#include "coin/shared_coin.h"

#include <algorithm>

#include "common/errors.h"
#include "common/ser.h"

namespace coincidence::coin {

namespace {
// Message word accounting (§2): a VRF output is a value (1 word) plus a
// proof (1 word); the message type tag is a constant number of bits.
constexpr std::size_t kCoinMessageWords = 2;
}  // namespace

// Payload layout shared by <first> and <second> messages. The value blob
// comes first (the ablation adversary in sim/adversary.cpp relies on
// being able to read it in illegal content-aware mode).
struct SharedCoin::Wire {
  BytesView value;
  crypto::ProcessId origin = 0;
  BytesView origin_proof;

  Bytes encode() const {
    Writer w;
    w.blob(value).u32(origin).blob(origin_proof);
    return w.take();
  }

  // Fields view into `payload`; callers verify and fold before the
  // message buffer goes away.
  static bool decode(BytesView payload, Wire& out) {
    try {
      Reader r(payload);
      out.value = r.blob_view();
      out.origin = r.u32();
      out.origin_proof = r.blob_view();
      r.done();
      return true;
    } catch (const CodecError&) {
      return false;
    }
  }
};

SharedCoin::SharedCoin(Config cfg, DoneFn on_done)
    : cfg_(std::move(cfg)),
      on_done_(std::move(on_done)),
      tag_first_(cfg_.tag + "/first"),
      tag_second_(cfg_.tag + "/second") {
  COIN_REQUIRE(cfg_.n > 0, "SharedCoin: n must be positive");
  COIN_REQUIRE(cfg_.n > 2 * cfg_.f, "SharedCoin: need n - f > f");
  COIN_REQUIRE(cfg_.vrf != nullptr && cfg_.registry != nullptr,
               "SharedCoin: missing crypto environment");
  Writer w;
  w.str("shared-coin").u64(cfg_.round);
  vrf_input_ = w.take();
}

SharedCoin::~SharedCoin() {
  if (cfg_.batcher && queue_.pending() > 0)
    cfg_.batcher->note_discarded(queue_.pending());
}

void SharedCoin::fold_min(BytesView value, crypto::ProcessId origin,
                          BytesView origin_proof) {
  // Lexicographic comparison of the fixed-width big-endian values is the
  // numeric order; origin id breaks the (cryptographically negligible) tie.
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

void SharedCoin::start(sim::Context& ctx) {
  crypto::VrfOutput out =
      cfg_.vrf->eval(cfg_.registry->sk_of(ctx.self()), vrf_input_);
  Wire wire{out.value, ctx.self(), out.proof};
  ctx.broadcast(tag_first_, wire.encode(), kCoinMessageWords);
}

void SharedCoin::apply_share(sim::Context& ctx, bool is_first,
                             crypto::ProcessId sender, BytesView value,
                             crypto::ProcessId origin,
                             BytesView origin_proof) {
  if (done_) return;  // post-decide shares are state no-ops
  if (is_first) {
    if (!first_set_.insert(sender).second) return;
    // Late firsts (after <second> went out) still fold into v_i, exactly
    // as in the pseudo-code: only the *send* is once-only.
    fold_min(value, origin, origin_proof);
    if (!sent_second_ && first_set_.size() == cfg_.n - cfg_.f) {
      sent_second_ = true;
      first_snapshot_ = first_set_;
      Wire relay{min_value_, min_origin_, min_origin_proof_};
      ctx.broadcast(tag_second_, relay.encode(), kCoinMessageWords);
    }
    return;
  }

  // <second>
  if (!second_set_.insert(sender).second) return;
  fold_min(value, origin, origin_proof);
  if (second_set_.size() == cfg_.n - cfg_.f) {
    done_ = true;
    output_ = min_value_.back() & 1;
    ctx.note_decide(cfg_.tag, output_, cfg_.round);
    if (on_done_) on_done_(output_);
  }
}

bool SharedCoin::should_flush() const {
  // Candidate threshold: counting every pending (not-yet-verified) share
  // as a potential success, could the phase cross its threshold? If so
  // flush NOW — when the pending shares do verify, the threshold action
  // fires in this very delivery frame, exactly where the inline verifier
  // would have fired it.
  if (!sent_second_ &&
      first_set_.size() + queue_.pending_first() >= cfg_.n - cfg_.f)
    return true;
  if (!done_ && second_set_.size() + queue_.pending_second() >= cfg_.n - cfg_.f)
    return true;
  return queue_.pending() >= BatchVerifier::kWatermark;
}

void SharedCoin::flush_queue(sim::Context& ctx) {
  std::vector<PendingVerifyQueue::Share> shares = queue_.take();
  cfg_.batcher->note_flushed(shares.size());
  std::vector<crypto::VrfBatchEntry> entries;
  entries.reserve(shares.size());
  for (const PendingVerifyQueue::Share& s : shares)
    entries.push_back(crypto::VrfBatchEntry{cfg_.registry->pk_of(s.origin),
                                            vrf_input_, s.value,
                                            s.origin_proof});
  std::vector<char> verdicts;
  BatchVerifier::FlushStats stats =
      cfg_.batcher->verify_shares(entries, verdicts);
  ctx.count(sim::Counter::kVerifyFlushes, 1);
  ctx.count(sim::Counter::kVerifyShares, shares.size());
  ctx.count(sim::Counter::kVerifyRejects, stats.rejects);
  ctx.count(sim::Counter::kVerifyMemoHits, stats.memo_hits);
  // Arrival order + the done_/dedup guards in apply_share reproduce the
  // inline state evolution exactly; rejected shares are simply skipped
  // (inline: "forged value/proof: ignore").
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (!verdicts[i]) continue;
    const PendingVerifyQueue::Share& s = shares[i];
    apply_share(ctx, s.is_first, s.sender, s.value, s.origin, s.origin_proof);
  }
}

bool SharedCoin::handle(sim::Context& ctx, const sim::Message& msg) {
  const bool is_first = msg.tag == tag_first_;
  const bool is_second = msg.tag == tag_second_;
  if (!is_first && !is_second) return false;

  // Once done, every path below returns true without touching state —
  // skip the decode and VRF verification outright.
  if (done_) return true;

  Wire wire;
  if (!Wire::decode(msg.payload, wire)) return true;  // malformed: ignore
  if (is_first && wire.origin != msg.from) return true;  // firsts are own values
  if (wire.origin >= cfg_.n) return true;

  if (cfg_.batcher) {
    // Deferred path. A sender already counted for this phase can be
    // dropped unqueued — inline would verify then hit the dedup set, with
    // no state change. (A sender with only a PENDING share must still
    // enqueue: its queued share might fail verification, and inline
    // would have accepted this one.)
    if (is_first ? first_set_.count(msg.from) != 0
                 : second_set_.count(msg.from) != 0)
      return true;
    PendingVerifyQueue::Share share;
    share.buf = msg.payload;  // refcount bump keeps the views alive
    share.sender = msg.from;
    share.origin = wire.origin;
    share.is_first = is_first;
    share.value = wire.value;
    share.origin_proof = wire.origin_proof;
    queue_.enqueue(std::move(share));
    cfg_.batcher->note_enqueued();
    if (should_flush()) flush_queue(ctx);
    return true;
  }

  if (!cfg_.vrf->verify(cfg_.registry->pk_of(wire.origin), vrf_input_,
                        wire.value, wire.origin_proof))
    return true;  // forged value/proof: ignore (paper: "would expose it")
  apply_share(ctx, is_first, msg.from, wire.value, wire.origin,
              wire.origin_proof);
  return true;
}

int SharedCoin::output() const {
  COIN_REQUIRE(done_, "SharedCoin: output read before completion");
  return output_;
}

}  // namespace coincidence::coin
