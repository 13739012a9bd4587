#include "ba/ben_or.h"

#include "common/errors.h"
#include "common/ser.h"

namespace coincidence::ba {

namespace {
constexpr std::size_t kWordsPerMessage = 1;  // one finite-domain value
}  // namespace

BenOr::BenOr(Config cfg, Value initial)
    : cfg_(std::move(cfg)), round_prefix_(cfg_.tag + "/"), x_(initial) {
  COIN_REQUIRE(is_binary(initial), "BenOr: initial value must be 0 or 1");
  COIN_REQUIRE(cfg_.n > 5 * cfg_.f, "BenOr: requires n > 5f");
}

int BenOr::decision() const {
  COIN_REQUIRE(decision_.has_value(), "BenOr: not decided yet");
  return *decision_;
}

std::uint64_t BenOr::decided_round() const {
  COIN_REQUIRE(decision_.has_value(), "BenOr: not decided yet");
  return decision_round_;
}

void BenOr::on_start(sim::Context& ctx) { begin_round(ctx); }

void BenOr::begin_round(sim::Context& ctx) {
  if ((decision_ && round_ > decision_round_ + cfg_.extra_rounds) ||
      round_ >= cfg_.max_rounds) {
    halted_ = true;
    return;
  }
  Writer w;
  w.u8(x_);
  ctx.broadcast(round_tag(round_, 'R'), w.take(), kWordsPerMessage);
  check_progress(ctx);  // counters for this round may already be full
}

sim::Tag BenOr::round_tag(std::uint64_t r, char kind) {
  while (round_tags_.size() <= r) {
    const std::string base =
        cfg_.tag + "/" + std::to_string(round_tags_.size()) + "/";
    round_tags_.push_back({sim::Tag(base + "R"), sim::Tag(base + "P")});
  }
  return round_tags_[r][kind == 'R' ? 0 : 1];
}

void BenOr::on_message(sim::Context& ctx, const sim::Message& msg) {
  if (halted_) return;
  // Tags: "<tag>/<r>/R" or "<tag>/<r>/P". Parsed off the interner's
  // resolved string — no allocation on the message path.
  std::string_view kind;
  const auto round = sim::tag_index(msg.tag.str(), round_prefix_, &kind);
  if (!round || (kind != "R" && kind != "P")) return;
  const std::uint64_t r = *round;
  if (r >= cfg_.max_rounds) return;  // Byzantine round-flood guard

  Value v;
  try {
    Reader reader(msg.payload);
    v = reader.u8();
    reader.done();
  } catch (const CodecError&) {
    return;
  }

  RoundState& rs = state(r);
  if (kind == "R") {
    if (!is_binary(v)) return;  // reports carry 0/1 only
    if (!rs.report_senders.insert(msg.from).second) return;
    rs.reports[v].insert(msg.from);
  } else {
    if (!is_binary(v) && v != kQuestion) return;
    if (!rs.proposal_senders.insert(msg.from).second) return;
    rs.proposals[v].insert(msg.from);
  }
  check_progress(ctx);
}

void BenOr::check_progress(sim::Context& ctx) {
  // Progress is re-evaluated after every counter update; a single message
  // can unlock several steps (counters fill ahead of the local round).
  for (;;) {
    if (halted_) return;
    RoundState& rs = state(round_);
    const std::size_t quorum = cfg_.n - cfg_.f;
    const double majority = (static_cast<double>(cfg_.n) + cfg_.f) / 2.0;

    if (!rs.proposal_sent) {
      if (rs.report_senders.size() < quorum) return;
      rs.proposal_sent = true;
      Value proposal = kQuestion;
      for (Value v : {kZero, kOne})
        if (static_cast<double>(rs.reports[v].size()) > majority)
          proposal = v;
      Writer w;
      w.u8(proposal);
      ctx.broadcast(round_tag(round_, 'P'), w.take(), kWordsPerMessage);
    }

    if (rs.proposal_senders.size() < quorum) return;

    // Step 3.
    bool moved = false;
    for (Value v : {kZero, kOne}) {
      std::size_t d = rs.proposals[v].size();
      if (static_cast<double>(d) > majority) {
        if (!decision_) {
          decision_ = static_cast<int>(v);
          decision_round_ = round_;
          ctx.note_decide(cfg_.tag, *decision_, round_);
        }
        x_ = v;
        moved = true;
        break;
      }
      if (d >= cfg_.f + 1) {
        x_ = v;
        moved = true;
        break;
      }
    }
    if (!moved) x_ = static_cast<Value>(ctx.rng().next_below(2));

    ++round_;
    ctx.note_round(round_);
    if ((decision_ && round_ > decision_round_ + cfg_.extra_rounds) ||
        round_ >= cfg_.max_rounds) {
      halted_ = true;
      return;
    }
    Writer w;
    w.u8(x_);
    ctx.broadcast(round_tag(round_, 'R'), w.take(), kWordsPerMessage);
    // Loop: the new round's counters may already be over threshold.
  }
}

}  // namespace coincidence::ba
