#include "ba/mmr.h"

#include "common/errors.h"
#include "common/ser.h"

namespace coincidence::ba {

namespace {
constexpr std::size_t kWordsPerMessage = 1;  // one finite-domain value
}  // namespace

Mmr::Mmr(Config cfg, Value initial)
    : cfg_(std::move(cfg)), round_prefix_(cfg_.tag + "/"), est_(initial) {
  COIN_REQUIRE(is_binary(initial), "Mmr: initial value must be 0 or 1");
  COIN_REQUIRE(cfg_.n > 3 * cfg_.f, "Mmr: requires n > 3f");
  COIN_REQUIRE(cfg_.make_coin != nullptr, "Mmr: missing coin factory");
}

int Mmr::decision() const {
  COIN_REQUIRE(decision_.has_value(), "Mmr: not decided yet");
  return *decision_;
}

std::uint64_t Mmr::decided_round() const {
  COIN_REQUIRE(decision_.has_value(), "Mmr: not decided yet");
  return decision_round_;
}

void Mmr::on_start(sim::Context& ctx) { begin_round(ctx); }

void Mmr::begin_round(sim::Context& ctx) {
  if ((decision_ && round_ > decision_round_ + cfg_.extra_rounds) ||
      round_ >= cfg_.max_rounds) {
    halted_ = true;
    if (coin_) retired_coins_.push_back(std::move(coin_));
    return;
  }
  waiting_for_coin_ = false;
  if (coin_) retired_coins_.push_back(std::move(coin_));
  broadcast_bval(ctx, round_, est_);
  check_progress(ctx);
}

const Mmr::RoundTags& Mmr::round_tags(std::uint64_t r) {
  while (round_tags_.size() <= r) {
    const std::string base = round_tag(round_tags_.size());
    round_tags_.push_back({sim::Tag(base + "/bval"), sim::Tag(base + "/aux")});
  }
  return round_tags_[r];
}

void Mmr::broadcast_bval(sim::Context& ctx, std::uint64_t r, Value v) {
  RoundState& rs = state(r);
  if (!rs.bval_relayed.insert(v).second) return;
  Writer w;
  w.u8(v);
  ctx.broadcast(round_tags(r).bval, w.take(), kWordsPerMessage);
}

void Mmr::on_message(sim::Context& ctx, const sim::Message& msg) {
  retired_coins_.clear();  // safe point, no coin handle() frame active
  if (halted_) return;

  // Parsed off the interner's resolved string; `rest` views into it, so
  // the message path allocates nothing.
  std::string_view rest;
  const auto r = sim::tag_index(msg.tag.str(), round_prefix_, &rest);
  if (!r || *r >= cfg_.max_rounds) return;

  if (rest == "bval" || rest == "aux") {
    Value v;
    try {
      Reader reader(msg.payload);
      v = reader.u8();
      reader.done();
    } catch (const CodecError&) {
      return;
    }
    if (!is_binary(v)) return;
    RoundState& rs = state(*r);
    if (rest == "bval") {
      if (!rs.bval_senders[v].insert(msg.from).second) return;
      // BV-broadcast: relay after f+1, accept into bin_values after 2f+1.
      if (rs.bval_senders[v].size() >= cfg_.f + 1)
        broadcast_bval(ctx, *r, v);
      if (rs.bval_senders[v].size() >= 2 * cfg_.f + 1)
        rs.bin_values.insert(v);
    } else {
      rs.aux.emplace(msg.from, v);  // first aux per sender
    }
    check_progress(ctx);
    return;
  }

  // Coin traffic: route to the live instance or stash for the round we
  // have not reached yet.
  if (waiting_for_coin_ && coin_ && *r == round_ &&
      coin_->handle(ctx, msg)) {
    return;
  }
  if (*r >= round_) coin_backlog_.push_back(msg);
}

void Mmr::check_progress(sim::Context& ctx) {
  if (halted_ || waiting_for_coin_) return;
  RoundState& rs = state(round_);

  if (!rs.aux_sent && !rs.bin_values.empty()) {
    rs.aux_sent = true;
    Writer w;
    w.u8(*rs.bin_values.begin());
    ctx.broadcast(round_tags(round_).aux, w.take(), kWordsPerMessage);
  }
  if (!rs.aux_sent) return;

  // Wait for n−f aux messages whose values all lie in bin_values.
  std::set<Value> vals;
  std::size_t supporting = 0;
  for (const auto& [sender, v] : rs.aux) {
    if (rs.bin_values.count(v)) {
      ++supporting;
      vals.insert(v);
    }
  }
  if (supporting < cfg_.n - cfg_.f) return;

  // Proposal set fixed — only now flip the coin (the ordering the paper
  // stresses for Algorithm 4 holds here too).
  vals_ = vals;
  waiting_for_coin_ = true;
  std::string ctag = round_tag(round_) + "/coin";
  coin_ = cfg_.make_coin(round_, ctag);
  COIN_REQUIRE(coin_ != nullptr, "Mmr: coin factory returned null");
  coin_ = std::make_unique<coin::CallbackCoin>(std::move(coin_), [this, &ctx](int c) {
    on_coin(ctx, c);
  });
  coin_->start(ctx);

  // Replay coin messages that arrived early for this round.
  std::vector<sim::Message> backlog;
  backlog.swap(coin_backlog_);
  for (auto& m : backlog) {
    const auto r = sim::tag_index(m.tag.str(), round_prefix_);
    if (!r || *r < round_) continue;  // stale
    if (waiting_for_coin_ && coin_ && *r == round_ && coin_->handle(ctx, m))
      continue;
    coin_backlog_.push_back(m);
  }
}

void Mmr::on_coin(sim::Context& ctx, int c) {
  if (vals_.size() == 1) {
    Value v = *vals_.begin();
    est_ = v;
    if (static_cast<int>(v) == c && !decision_) {
      decision_ = c;
      decision_round_ = round_;
      ctx.note_decide(cfg_.tag, *decision_, round_);
    }
  } else {
    est_ = static_cast<Value>(c);
  }
  ++round_;
  ctx.note_round(round_);
  begin_round(ctx);
}

}  // namespace coincidence::ba
