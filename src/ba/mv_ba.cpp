#include "ba/mv_ba.h"

#include <algorithm>
#include <string>
#include <utility>

#include "coin/verify_queue.h"
#include "common/errors.h"
#include "crypto/sha256.h"

namespace coincidence::ba {

MultiValuedBa::MultiValuedBa(Config cfg, Bytes proposal)
    : MultiValuedBa(std::move(cfg),
                    [p = std::move(proposal)] { return p; }) {}

MultiValuedBa::MultiValuedBa(Config cfg, ProposalFn proposal)
    : cfg_(std::move(cfg)),
      proposal_(std::move(proposal)),
      delivered_(cfg_.params.n),
      bas_(cfg_.tag + "/c", effective_max()) {
  COIN_REQUIRE(cfg_.params.n > 0, "MultiValuedBa: params not initialised");
  COIN_REQUIRE(cfg_.batcher != nullptr, "MultiValuedBa: missing batcher");
  rbc_ = make_broadcast(cfg_.rbc,
                        {cfg_.tag + "/rbc", cfg_.params.n, cfg_.params.f,
                         &cfg_.batcher->rbc_memo()},
                        [this](sim::ProcessId src, const Bytes& payload) {
                          on_rbc_deliver(src, payload);
                        });
  const std::size_t n = cfg_.params.n;
  std::vector<std::pair<std::uint64_t, sim::ProcessId>> keyed;
  keyed.reserve(n);
  // Every rank hashes "<tag>/rank/<p>": absorb the shared prefix once and
  // finish a copy of that state per pid.
  crypto::Sha256 prefix;
  prefix.update(bytes_of(cfg_.tag + "/rank/"));
  for (std::size_t p = 0; p < n; ++p) {
    crypto::Sha256 h = prefix;
    const std::string id = std::to_string(p);
    h.update(BytesView(reinterpret_cast<const std::uint8_t*>(id.data()),
                       id.size()));
    const crypto::Digest d = h.finish();
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < 8; ++i) key = (key << 8) | d[i];
    keyed.emplace_back(key, static_cast<sim::ProcessId>(p));
  }
  std::sort(keyed.begin(), keyed.end());
  rank_.reserve(n);
  for (const auto& [key, p] : keyed) rank_.push_back(p);
  broadcaster_.assign(n, false);
  for (std::size_t k = 0; k < effective_max(); ++k)
    broadcaster_[rank_[k]] = true;
  // The backend interned this tag already: no new TagId.
  rbc_initial_ = sim::Tag(cfg_.tag + "/rbc/initial");
}

std::size_t MultiValuedBa::effective_max() const {
  const std::size_t k = cfg_.params.f + 1;
  return cfg_.max_candidates == 0 ? k : std::min(cfg_.max_candidates, k);
}

bool MultiValuedBa::broadcaster(sim::ProcessId p) const {
  return p < broadcaster_.size() && broadcaster_[p];
}

void MultiValuedBa::on_start(sim::Context& ctx) {
  ctx_ = &ctx;
  due_at_ = ctx.now();
  const std::size_t k = effective_max();
  if (k <= cfg_.params.f && cfg_.skip_timeout > 0) {
    quiet_until_ = due_at_ + k * cfg_.skip_timeout;
    ctx.schedule_wakeup(k * cfg_.skip_timeout);
  }
  if (broadcaster(ctx.self())) rbc_->broadcast(ctx, proposal_());
  pump(ctx);
}

void MultiValuedBa::on_message(sim::Context& ctx, const sim::Message& msg) {
  ctx_ = &ctx;
  // RBC and inner BAs keep running after a local decision: stragglers
  // still need our echoes/readies for totality and our grace-round BA
  // traffic (BaWhp halts itself after its extra rounds).
  // A proposal from outside the examined prefix could never be adopted:
  // no correct process echoes it, so it never delivers anywhere.
  if (msg.tag == rbc_initial_ && !broadcaster(msg.from)) return;
  if (rbc_->handle(ctx, msg)) {
    // A delivery may have opened the activation gate (or completed an
    // awaited adoption — finish() fires from on_rbc_deliver directly).
    pump(ctx);
    return;
  }
  if (bas_.deliver(ctx, msg)) pump(ctx);
}

void MultiValuedBa::on_wakeup(sim::Context& ctx) {
  ctx_ = &ctx;
  for (const auto& ba : bas_.children()) ba->on_wakeup(ctx);
  pump(ctx);
}

void MultiValuedBa::activate_next(sim::Context& ctx) {
  const std::size_t k = bas_.size();
  BaWhp::Config bcfg{cfg_};
  bcfg.tag = cfg_.tag + "/c" + std::to_string(k);
  bcfg.max_rounds = cfg_.max_rounds;
  bcfg.skip_timeout = cfg_.skip_timeout;
  // Armed, the skip fallback carries a straggler to the decision (its
  // skip-req draws a decider's certificate), so a decided candidate BA
  // halts at once. Its grace rounds would only feed the delivery clock
  // that a sibling slot's committee-tail wedge is waiting out.
  if (cfg_.skip_timeout > 0) bcfg.extra_rounds = 0;
  const Value input = delivered_[rank_[k]].has_value() ? kOne : kZero;
  ba_done_.push_back(false);
  bas_.activate(ctx, std::make_unique<BaWhp>(std::move(bcfg), input));
}

void MultiValuedBa::pump(sim::Context& ctx) {
  bool progress = true;
  while (progress && !decided_) {
    progress = false;
    for (std::size_t k = 0; k < bas_.size(); ++k) {
      if (ba_done_[k] || !bas_[k].decided()) continue;
      ba_done_[k] = true;
      progress = true;
      if (bas_[k].decision() == 1) {
        // Sequential activation makes this the unique adopted candidate:
        // every earlier instance already latched a 0 decision (decisions
        // are irrevocable), and no later one gets activated.
        if (adopted_ < 0) adopt(ctx, k);
      } else if (adopted_ < 0 && k + 1 == bas_.size()) {
        activation_due_ = true;
        due_at_ = ctx.now();
      }
    }
    if (decided_ || adopted_ >= 0 || !activation_due_) continue;
    const std::size_t k = bas_.size();
    if (k >= effective_max()) {
      finish(ctx);  // every candidate rejected: no-op decision
    } else if (delivered_[rank_[k]].has_value() || gate_open(ctx)) {
      activation_due_ = false;
      grace_until_.reset();
      activate_next(ctx);
      progress = true;
    }
  }
}

bool MultiValuedBa::gate_open(sim::Context& ctx) {
  const std::size_t k = effective_max();
  const std::size_t f = cfg_.params.f;
  if (k <= f && cfg_.skip_timeout == 0) return true;
  const std::uint64_t now = ctx.now();
  if (rbc_->delivered_count() < (k > f ? k - f : 1)) {
    // A capped prefix may be silent as a whole: open at the fixed
    // deadline on_start set, which no message can move.
    return k <= f && now >= quiet_until_;
  }
  if (!grace_until_) {
    // The quorum just completed: give the candidate's own broadcast as
    // long again as the quorum took.
    grace_until_ = now + (now - due_at_);
    if (*grace_until_ > now) ctx.schedule_wakeup(*grace_until_ - now);
  }
  return now >= *grace_until_;
}

void MultiValuedBa::adopt(sim::Context& ctx, std::size_t k) {
  adopted_ = static_cast<int>(k);
  const sim::ProcessId proposer = rank_[k];
  if (delivered_[proposer].has_value()) {
    finish(ctx);
  } else {
    // BA validity: some correct process input 1, i.e. had delivered this
    // broadcast — RBC totality then guarantees our delivery is en route.
    awaiting_proposer_ = proposer;
  }
}

void MultiValuedBa::finish(sim::Context& ctx) {
  decided_ = true;
  awaiting_proposer_.reset();
  if (adopted_ >= 0) {
    value_ = *delivered_[rank_[static_cast<std::size_t>(adopted_)]];
    decided_round_ = bas_[static_cast<std::size_t>(adopted_)].decided_round();
  } else {
    value_.clear();
    decided_round_ = 0;
  }
  ctx.note_decide(sim::Tag(cfg_.tag), adopted_, decided_round_);
}

void MultiValuedBa::on_rbc_deliver(sim::ProcessId source,
                                   const Bytes& payload) {
  if (source < delivered_.size() && !delivered_[source].has_value())
    delivered_[source] = payload;
  if (awaiting_proposer_ && *awaiting_proposer_ == source) finish(*ctx_);
}

int MultiValuedBa::decision() const {
  COIN_REQUIRE(decided_, "MultiValuedBa: not decided");
  return adopted_;
}

std::uint64_t MultiValuedBa::decided_round() const {
  COIN_REQUIRE(decided_, "MultiValuedBa: not decided");
  return decided_round_;
}

const Bytes& MultiValuedBa::decided_value() const {
  COIN_REQUIRE(decided_, "MultiValuedBa: not decided");
  return value_;
}

sim::ProcessId MultiValuedBa::decided_proposer() const {
  COIN_REQUIRE(decided_ && adopted_ >= 0,
               "MultiValuedBa: no adopted proposer");
  return rank_[static_cast<std::size_t>(adopted_)];
}

std::uint64_t MultiValuedBa::rounds_skipped() const {
  std::uint64_t total = 0;
  for (const auto& ba : bas_.children()) total += ba->rounds_skipped();
  return total;
}

std::uint64_t MultiValuedBa::max_inner_round() const {
  std::uint64_t max_round = 0;
  for (const auto& ba : bas_.children())
    max_round = std::max(max_round, ba->current_round());
  return max_round;
}

}  // namespace coincidence::ba
