#include "ba/ba_whp.h"

#include <algorithm>

#include "common/errors.h"
#include "common/scratch_pool.h"
#include "common/ser.h"
#include "sim/snapshot.h"

namespace coincidence::ba {

namespace {
constexpr std::string_view kSnapshotKind = "ba-whp";
constexpr std::uint32_t kSnapshotVersion = 1;
// Bound on verifications of forwarded skip-req locks per round: a lock
// costs a full ok-proof sweep, so Byzantine-crafted junk locks must not
// turn every skip-req into W signature checks.
constexpr std::uint32_t kMaxLockChecks = 4;
// Re-broadcast the skip-req at most this many times per round, then wait
// passively (bounds wakeup traffic of a lone straggler that can never
// assemble a skip quorum).
constexpr std::uint32_t kSkipMaxAttempts = 8;
// Word accounting for the fallback plane. A bare skip-req is one word; a
// lock or certificate entry repeats one <ok> (2 + 2W words, §6.1) plus
// its claimed sender.
std::size_t ok_entry_words(std::size_t W) { return 1 + 2 + 2 * W; }
}  // namespace

BaWhp::BaWhp(Config cfg, Value initial)
    : cfg_(std::move(cfg)),
      round_prefix_(cfg_.tag + "/"),
      approver_cfg_{cfg_},
      coin_cfg_{cfg_},
      initial_(initial),
      est_(initial),
      senders_(3, skip_enabled() ? cfg_.params.n : 0) {
  COIN_REQUIRE(is_binary(initial), "BaWhp: initial value must be 0 or 1");
  COIN_REQUIRE(cfg_.vrf && cfg_.registry && cfg_.sampler && cfg_.signer &&
                   cfg_.batcher,
               "BaWhp: missing crypto environment");
  if (skip_enabled()) {
    tag_decided_ = sim::Tag(cfg_.tag + "/decided");
  }
}

int BaWhp::decision() const {
  COIN_REQUIRE(decision_.has_value(), "BaWhp: not decided yet");
  return *decision_;
}

std::uint64_t BaWhp::decided_round() const {
  COIN_REQUIRE(decision_.has_value(), "BaWhp: not decided yet");
  return decision_round_;
}

BaWhp::~BaWhp() { release_backlog(); }

void BaWhp::on_start(sim::Context& ctx) {
  persist_now(ctx);
  begin_round(ctx);
}

void BaWhp::persist_now(sim::Context& ctx) {
  // Round-boundary snapshot: everything a restart needs to resume
  // safely. Mid-round progress (approver sets, coin queues) is
  // deliberately NOT persisted — losing it re-runs the round, which the
  // protocol tolerates; persisting it would have to capture sub-instance
  // crypto state too. The state is encoded in a per-thread buffer, since
  // persist() copies it out.
  thread_local Bytes state;
  Writer w(std::move(state));
  w.u64(round_);
  w.u8(static_cast<std::uint8_t>(est_));
  w.u8(decision_ ? 1 : 0);
  w.u8(decision_ ? static_cast<std::uint8_t>(*decision_) : 0);
  w.u64(decision_round_);
  state = w.take();
  ctx.persist(sim::StateSnapshot::pack(kSnapshotKind, kSnapshotVersion, state));
}

void BaWhp::on_recover(sim::Context& ctx, const Bytes& snapshot) {
  // RAM is gone: drop every sub-instance and buffer. Destroying a coin
  // mid-round settles its deferred verify queue as discarded-unverified
  // (see WhpCoin::~WhpCoin), so the BatchVerifier ledger stays exact.
  est_ = initial_;
  decision_.reset();
  decision_round_ = 0;
  round_ = 0;
  phase_ = Phase::kApproveEst;
  propose_ = kBot;
  coin_value_ = 0;
  approver_.reset();
  coin_.reset();
  retired_approvers_.clear();
  retired_coins_.clear();
  release_backlog();
  if (skip_enabled()) {
    skip_count_ = 0;
    sent_skip_ = false;
    skip_attempts_ = 0;
    next_wakeup_at_ = 0;  // wakeups died with the crash (epoch bump)
    lock_checks_ = 0;
    fwd_lock_.reset();
    decided_by_cert_ = false;
    cert_oks_.clear();
    cert_round_ = 0;
    for (std::size_t row : {kSkipRow, kCertedRow, kCertRejectedRow})
      senders_.clear(row);
  }

  Bytes state;
  if (sim::StateSnapshot::unpack(snapshot, kSnapshotKind, kSnapshotVersion,
                                 state)) {
    try {
      Reader r(state);
      const std::uint64_t round = r.u64();
      const auto est = static_cast<Value>(r.u8());
      const bool has_decision = r.u8() != 0;
      const auto decision = static_cast<int>(r.u8());
      const std::uint64_t decision_round = r.u64();
      r.done();
      if (is_binary(est)) {
        round_ = round;
        est_ = est;
        if (has_decision) {
          decision_ = decision;
          decision_round_ = decision_round;
        }
      }
    } catch (const CodecError&) {
      // Corrupt snapshot: stable storage is untrusted input; restart
      // from the initial value instead of misparsing.
    }
  }
  begin_round(ctx);
}

void BaWhp::begin_round(sim::Context& ctx) {
  // Halting rule: participate through round decided+extra_rounds, then
  // stop — one extra round is what Lemma 6.16 needs whp; the rest is
  // slack for the whp-failure tail.
  if ((decision_ && round_ > decision_round_ + cfg_.extra_rounds) ||
      round_ >= cfg_.max_rounds) {
    phase_ = Phase::kHalted;
    if (approver_) retired_approvers_.push_back(std::move(approver_));
    if (coin_) retired_coins_.push_back(std::move(coin_));
    release_backlog();  // a halted instance replays nothing
    return;
  }

  phase_ = Phase::kApproveEst;
  if (approver_) retired_approvers_.push_back(std::move(approver_));
  if (coin_) retired_coins_.push_back(std::move(coin_));
  if (skip_enabled()) {
    tag_skip_ = sim::join_tag(round_prefix_, std::to_string(round_), "/skip");
    senders_.clear(kSkipRow);
    skip_count_ = 0;
    sent_skip_ = false;
    skip_attempts_ = 0;
    lock_checks_ = 0;
    fwd_lock_.reset();
    if (!decision_) arm_skip_timer(ctx);
  }
  name_round(approver_cfg_.tag, "/a1");
  approver_ = std::make_unique<Approver>(
      approver_cfg_, est_,
      [this, &ctx](const std::set<Value>& vals) { on_vals(ctx, vals); });
  approver_->start(ctx);
  replay_backlog(ctx);
}

void BaWhp::on_vals(sim::Context& ctx, const std::set<Value>& vals) {
  // Line 6–8: propose the singleton value or ⊥.
  propose_ = vals.size() == 1 ? *vals.begin() : kBot;

  phase_ = Phase::kCoin;
  name_round(coin_cfg_.tag, "/coin");
  coin_cfg_.round = round_;
  coin_ = std::make_unique<coin::WhpCoin>(
      coin_cfg_, [this, &ctx](int c) { on_coin(ctx, c); });
  coin_->start(ctx);
  replay_backlog(ctx);
}

void BaWhp::on_coin(sim::Context& ctx, int c) {
  coin_value_ = c;

  phase_ = Phase::kApprovePropose;
  if (approver_) retired_approvers_.push_back(std::move(approver_));
  name_round(approver_cfg_.tag, "/a2");
  approver_ = std::make_unique<Approver>(
      approver_cfg_, propose_,
      [this, &ctx](const std::set<Value>& props) { on_props(ctx, props); });
  approver_->start(ctx);
  replay_backlog(ctx);
}

void BaWhp::on_props(sim::Context& ctx, const std::set<Value>& props) {
  if (props.size() == 1 && *props.begin() != kBot) {
    Value v = *props.begin();
    est_ = v;
    if (!decision_) {
      decision_ = static_cast<int>(v);
      decision_round_ = round_;
      ctx.note_decide(cfg_.tag, *decision_, round_);
      if (skip_enabled() && approver_) {
        // Retain the W applied oks (props = {v} means all of them carry
        // v) as the decision certificate handed to skip-req senders.
        cert_round_ = round_;
        cert_oks_ = approver_->take_applied_oks();  // the round is over
        std::erase_if(cert_oks_, [v](const Approver::AppliedOk& ok) {
          return ok.v != v;
        });
        if (cert_oks_.size() < cfg_.params.W) cert_oks_.clear();
      }
    }
  } else if (props.size() == 1 && *props.begin() == kBot) {
    est_ = static_cast<Value>(coin_value_);
  } else {
    // props = {v, ⊥}: adopt the non-⊥ value.
    for (Value v : props)
      if (v != kBot) est_ = v;
  }

  advance_round(ctx);
}

void BaWhp::advance_round(sim::Context& ctx) {
  ++round_;
  ctx.note_round(round_);
  persist_now(ctx);
  begin_round(ctx);
}

void BaWhp::replay_backlog(sim::Context& ctx) {
  // Re-offer buffered messages to the (new) active sub-instance. A single
  // pass suffices per phase change: offer() re-buffers what still doesn't
  // match, and completion callbacks re-enter via begin_round/on_* which
  // call replay_backlog again. Messages of rounds already passed can
  // never match again and are dropped. The two buffers trade places, so
  // both keep their capacity; a nested replay finds the spare taken and
  // starts its own.
  if (!backlog_ || backlog_->msgs.empty()) return;
  std::vector<sim::Message> pending = std::move(backlog_->spare);
  pending.clear();
  pending.swap(backlog_->msgs);
  for (auto& msg : pending) {
    if (phase_ == Phase::kHalted) break;
    if (*tag_round(msg.tag) < round_) continue;  // stale round
    offer(ctx, msg);
  }
  pending.clear();
  if (backlog_) backlog_->spare = std::move(pending);  // gone if we halted
}

void BaWhp::stash(const sim::Message& msg) {
  if (!backlog_) backlog_ = ScratchPool<Backlog>::take();
  backlog_->msgs.push_back(msg);
}

void BaWhp::release_backlog() {
  if (!backlog_) return;
  backlog_->msgs.clear();  // drop the payload references
  backlog_->spare.clear();
  ScratchPool<Backlog>::give(std::move(backlog_));
}

void BaWhp::name_round(std::string& out, std::string_view suffix) const {
  out.assign(round_prefix_).append(std::to_string(round_)).append(suffix);
}

BaWhp::TagRoute BaWhp::route(sim::Tag tag) {
  if (const TagRoute* known = routes_.find(tag.id())) return *known;
  TagRoute r;
  std::string_view rest;
  r.round = sim::tag_index(tag.str(), round_prefix_, &rest);
  r.skip = r.round && rest == "skip";
  return routes_[tag.id()] = r;
}

bool BaWhp::offer(sim::Context& ctx, const sim::Message& msg) {
  // Fallback-plane tags route outside the round sub-instances: a
  // certificate is round-independent, a skip-req is counted (or
  // backlogged / answered with a certificate) by round.
  if (skip_enabled() && msg.tag == tag_decided_)
    return handle_decided_cert(ctx, msg);
  const TagRoute route_of = route(msg.tag);
  if (skip_enabled() && route_of.skip) return handle_skip_req(ctx, msg);
  // Byzantine senders must not grow the backlog without bound: tags
  // naming no round, or a round beyond the protocol horizon, are dropped
  // outright, and they are not progress.
  // Retired rounds are gone for good — their sub-instances (and deferred
  // verify queues) were destroyed, and a share re-delivered after a
  // crash-recovery must not re-enter a fresh PendingVerifyQueue for a
  // round this process already finished.
  const std::optional<std::uint64_t> r = route_of.round;
  if (!r || *r >= cfg_.max_rounds || *r < round_) return false;
  // Try the live sub-instances for the *current* phase; stash otherwise.
  // Every consumed message is progress: the round is demonstrably alive,
  // so the skip deadline slides instead of firing mid-round under load
  // (concurrent slots stretch a healthy round's wall-clock far beyond
  // any fixed budget). A wedged round goes instance-silent — no ok can
  // ever arrive — and only then does the timer run out.
  if (phase_ == Phase::kApproveEst || phase_ == Phase::kApprovePropose) {
    if (approver_ && approver_->handle(ctx, msg)) {
      note_progress(ctx);
      return true;
    }
  } else if (phase_ == Phase::kCoin) {
    if (coin_ && coin_->handle(ctx, msg)) {
      note_progress(ctx);
      return true;
    }
  }
  if (phase_ != Phase::kHalted) {
    stash(msg);
    // Backlogged traffic is progress too: a current-round message we are
    // not ready for (a1 echoes while we wait in the coin, say) or a
    // faster peer's next-round traffic both prove the instance is being
    // fed. A genuinely wedged round drains to *silence* — no sub-round
    // message of any phase can arrive once the in-flight pool empties —
    // and only that silence lets the skip deadline run out.
    note_progress(ctx);
  }
  return false;
}

void BaWhp::on_message(sim::Context& ctx, const sim::Message& msg) {
  // Safe point: no sub-instance handle() frame is active here.
  retired_approvers_.clear();
  retired_coins_.clear();
  if (phase_ == Phase::kHalted) {
    // A halted decider still answers skip-reqs with its decision
    // certificate — without this, a straggler wedged in an old round
    // could be stranded forever by deciders that moved on and halted.
    if (skip_enabled() && decision_ && is_skip_tag(msg.tag))
      maybe_send_cert(ctx, msg.from);
    return;
  }
  offer(ctx, msg);
}

// ----------------------------------------------- round-skip fallback --

void BaWhp::arm_skip_timer(sim::Context& ctx) {
  armed_round_ = round_;
  skip_deadline_ = ctx.now() + cfg_.skip_timeout;
  next_wakeup_at_ = skip_deadline_;
  ctx.schedule_wakeup(cfg_.skip_timeout);
}

void BaWhp::note_progress(sim::Context& ctx) {
  if (!skip_enabled() || decision_ || phase_ == Phase::kHalted) return;
  // The deadline slides; the pending wakeup is NOT rescheduled here (that
  // would enqueue one timer per message). When the stale wakeup fires
  // early it renews itself for the remainder — see on_wakeup.
  skip_deadline_ = ctx.now() + cfg_.skip_timeout;
  skip_attempts_ = 0;  // a live round owes nothing to the attempt cap
}

void BaWhp::on_wakeup(sim::Context& ctx) {
  // Serial callback — a safe point exactly like on_message.
  retired_approvers_.clear();
  retired_coins_.clear();
  if (!skip_enabled() || phase_ == Phase::kHalted || decision_) return;
  if (round_ != armed_round_) return;  // round moved on; its timer is live
  if (skip_attempts_ >= kSkipMaxAttempts) return;
  const std::uint64_t now = ctx.now();
  if (now < skip_deadline_) {
    // Either a sibling instance's tick (our own chain is still pending:
    // next_wakeup_at_ > now — nothing to do) or our chain fired under a
    // deadline that progress pushed out — renew it for the remainder,
    // keeping exactly one live chain per instance.
    if (next_wakeup_at_ <= now) {
      next_wakeup_at_ = skip_deadline_;
      ctx.schedule_wakeup(skip_deadline_ - now);
    }
    return;
  }
  ++skip_attempts_;
  send_skip_req(ctx);
  arm_skip_timer(ctx);
}

std::optional<Approver::AppliedOk> BaWhp::current_lock() const {
  // Only a2 oks are meaningful locks: they are what a round-r decision
  // would have been built from. a1 oks verify against different seeds.
  if (phase_ == Phase::kApprovePropose && approver_) {
    for (const Approver::AppliedOk& ok : approver_->applied_oks())
      if (ok.v != kBot) return ok;
  }
  return fwd_lock_;
}

void BaWhp::send_skip_req(sim::Context& ctx) {
  sent_skip_ = true;
  Writer w;
  std::optional<Approver::AppliedOk> lock = current_lock();
  if (lock) {
    w.u8(1).u8(lock->v).u32(lock->sender).blob(lock->buf);
  } else {
    w.u8(0);
  }
  ctx.broadcast(tag_skip_, w.take(),
                lock ? ok_entry_words(cfg_.params.W) : 1);
}

bool BaWhp::handle_skip_req(sim::Context& ctx, const sim::Message& msg) {
  const std::uint64_t r = *tag_round(msg.tag);  // a skip tag names one
  if (r >= cfg_.max_rounds) return true;  // horizon guard, as in offer()
  // A decided process answers every skip-req — whatever its round — with
  // its certificate: the requester is stuck and the certificate ends its
  // instance outright.
  if (decision_) maybe_send_cert(ctx, msg.from);
  if (r > round_) {  // future round: count it when we get there
    stash(msg);
    return false;
  }
  if (r < round_) return true;  // stale; this round was already left
  if (!senders_.insert(kSkipRow, msg.from)) return true;
  ++skip_count_;

  // Lock forwarding: adopt (after full verification) one non-⊥ ok of the
  // dying round as the est to re-propose. Bounded per round so junk
  // locks cannot buy CPU.
  if (!decision_ && !fwd_lock_ && lock_checks_ < kMaxLockChecks) {
    try {
      Reader rd(msg.payload);
      if (rd.u8() == 1) {
        const Value v = rd.u8();
        const crypto::ProcessId ok_sender = rd.u32();
        BytesView ok_payload = rd.blob_view();
        rd.done();
        if (is_binary(v)) {
          ++lock_checks_;
          std::optional<Value> verified = Approver::verify_ok_payload(
              cfg_, a2_tag(round_), ok_sender, msg.payload, ok_payload);
          if (verified && *verified == v)
            fwd_lock_ = Approver::AppliedOk{
                ok_sender, v, SharedBytes::copy_of(ok_payload)};
        }
      }
    } catch (const CodecError&) {
      return true;  // malformed skip-req: ignore entirely
    }
  }

  const std::uint64_t f = cfg_.params.f;
  if (!sent_skip_ && skip_count_ >= f + 1) send_skip_req(ctx);
  if (skip_count_ >= 2 * f + 1) execute_skip(ctx);
  return true;
}

void BaWhp::execute_skip(sim::Context& ctx) {
  // 2f+1 distinct processes vouch that round round_ is not progressing:
  // abandon it and retry with the fresh committees of the next round.
  // est adopts a verified non-⊥ ok of the dying round when one is known
  // (own applied oks first, else the forwarded lock) so a decision that
  // was brewing gets re-proposed.
  if (!decision_) {
    if (std::optional<Approver::AppliedOk> lock = current_lock())
      est_ = lock->v;
  }
  ++rounds_skipped_;
  propose_ = kBot;
  advance_round(ctx);
}

void BaWhp::maybe_send_cert(sim::Context& ctx, sim::ProcessId to) {
  const std::size_t W = cfg_.params.W;
  if (!decision_ || cert_oks_.size() < W) return;
  // Once per requester: spam cannot amplify.
  if (!senders_.insert(kCertedRow, to)) return;
  Writer w;
  w.u64(cert_round_);
  w.u8(static_cast<std::uint8_t>(*decision_));
  w.u32(static_cast<std::uint32_t>(W));
  for (std::size_t i = 0; i < W; ++i) {
    w.u32(cert_oks_[i].sender);
    w.blob(cert_oks_[i].buf);
  }
  ctx.send(to, tag_decided_, w.take(), 2 + W * ok_entry_words(W));
}

bool BaWhp::handle_decided_cert(sim::Context& ctx, const sim::Message& msg) {
  if (decision_) return true;
  if (senders_.contains(kCertRejectedRow, msg.from)) return true;

  const std::size_t W = cfg_.params.W;
  std::uint64_t r = 0;
  Value v = kBot;
  std::vector<std::pair<crypto::ProcessId, BytesView>> entries;
  try {
    Reader rd(msg.payload);
    r = rd.u64();
    v = rd.u8();
    const std::uint32_t count = rd.u32();
    if (count != W) throw CodecError("cert arity");
    entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const crypto::ProcessId sender = rd.u32();
      entries.emplace_back(sender, rd.blob_view());
    }
    rd.done();
  } catch (const CodecError&) {
    senders_.insert(kCertRejectedRow, msg.from);
    return true;
  }

  // W *distinct* verified oks, all carrying v, from round r's second
  // approver — exactly the props = {v} evidence a direct decision needs.
  bool valid = is_binary(v) && r < cfg_.max_rounds;
  if (valid) {
    std::vector<crypto::ProcessId> ids;
    ids.reserve(entries.size());
    for (const auto& [sender, payload] : entries) ids.push_back(sender);
    std::sort(ids.begin(), ids.end());
    valid = std::adjacent_find(ids.begin(), ids.end()) == ids.end();
  }
  const std::string tag = a2_tag(r);
  for (std::size_t i = 0; valid && i < entries.size(); ++i) {
    std::optional<Value> verified = Approver::verify_ok_payload(
        cfg_, tag, entries[i].first, msg.payload, entries[i].second);
    valid = verified.has_value() && *verified == v;
  }
  if (!valid) {
    senders_.insert(kCertRejectedRow, msg.from);
    return true;
  }

  est_ = v;
  decision_ = static_cast<int>(v);
  decision_round_ = r;
  decided_by_cert_ = true;
  cert_round_ = r;
  cert_oks_.clear();
  for (const auto& [sender, payload] : entries)
    cert_oks_.push_back(
        Approver::AppliedOk{sender, v, SharedBytes::copy_of(payload)});
  ctx.note_decide(cfg_.tag, *decision_, r);
  persist_now(ctx);
  return true;
}

}  // namespace coincidence::ba
