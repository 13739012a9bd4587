#include "ba/bracha.h"

#include "common/errors.h"
#include "common/ser.h"

namespace coincidence::ba {

Bracha::Bracha(Config cfg, Value initial)
    : cfg_(std::move(cfg)), round_prefix_(cfg_.tag + "/"), x_(initial) {
  COIN_REQUIRE(is_binary(initial), "Bracha: initial value must be 0 or 1");
  COIN_REQUIRE(cfg_.n > 3 * cfg_.f, "Bracha: requires n > 3f");
}

int Bracha::decision() const {
  COIN_REQUIRE(decision_.has_value(), "Bracha: not decided yet");
  return *decision_;
}

std::uint64_t Bracha::decided_round() const {
  COIN_REQUIRE(decision_.has_value(), "Bracha: not decided yet");
  return decision_round_;
}

Bracha::StepState& Bracha::step_state(sim::Context& /*ctx*/, std::uint64_t r,
                                      int step) {
  auto key = std::make_pair(r, step);
  auto it = steps_.find(key);
  if (it != steps_.end()) return it->second;

  StepState& st = steps_[key];
  Broadcast::Config rcfg;
  rcfg.tag = cfg_.tag + "/" + std::to_string(r) + "/" + std::to_string(step);
  rcfg.n = cfg_.n;
  rcfg.f = cfg_.f;
  st.rbc = make_broadcast(
      cfg_.rbc, std::move(rcfg),
      [this, r, step](sim::ProcessId source, const Bytes& payload) {
        std::uint8_t w;
        try {
          Reader reader(payload);
          w = reader.u8();
          reader.done();
        } catch (const CodecError&) {
          return;
        }
        // Domain validation per step: steps 1-2 carry plain bits, step 3
        // may carry a D-marked value.
        if (step < 3 ? !is_plain(w) : !(is_plain(w) || is_marked(w))) return;
        steps_[{r, step}].delivered.emplace(source, w);
      });
  return st;
}

void Bracha::on_start(sim::Context& ctx) { enter_step(ctx); }

void Bracha::enter_step(sim::Context& ctx) {
  if ((decision_ && round_ > decision_round_ + cfg_.extra_rounds) ||
      round_ >= cfg_.max_rounds) {
    halted_ = true;
    return;
  }
  StepState& st = step_state(ctx, round_, step_);
  if (!st.broadcast_done) {
    st.broadcast_done = true;
    Writer w;
    w.u8(x_);
    st.rbc->broadcast(ctx, w.take());
  }
  check_progress(ctx);
}

void Bracha::on_message(sim::Context& ctx, const sim::Message& msg) {
  if (halted_) return;
  // Route to the RBC instance named in the tag: "<tag>/<r>/<step>/...".
  // Parsed off the interner's resolved string — no allocation here.
  std::string_view rest;
  const auto r = sim::tag_index(msg.tag.str(), round_prefix_, &rest);
  if (!r || rest.empty() || rest[0] < '1' || rest[0] > '3') return;
  if (*r >= cfg_.max_rounds) return;  // don't let Byzantine tags OOM us

  step_state(ctx, *r, rest[0] - '0').rbc->handle(ctx, msg);
  check_progress(ctx);
}

void Bracha::check_progress(sim::Context& ctx) {
  for (;;) {
    if (halted_) return;
    StepState& st = step_state(ctx, round_, step_);
    if (st.delivered.size() < cfg_.n - cfg_.f) return;

    std::size_t count[2] = {0, 0};
    std::size_t marked[2] = {0, 0};
    for (const auto& [src, w] : st.delivered) {
      if (is_plain(w)) ++count[w];
      if (is_marked(w)) ++marked[w & 1];
    }

    if (step_ == 1) {
      // x <- majority of the plain values (keep x on a tie).
      if (count[0] > count[1]) x_ = 0;
      else if (count[1] > count[0]) x_ = 1;
      step_ = 2;
    } else if (step_ == 2) {
      for (std::uint8_t v : {0, 1})
        if (2 * count[v] > cfg_.n) x_ = kDMark | v;
      step_ = 3;
    } else {
      bool resolved = false;
      for (std::uint8_t v : {0, 1}) {
        if (marked[v] >= 2 * cfg_.f + 1) {
          if (!decision_) {
            decision_ = v;
            decision_round_ = round_;
            ctx.note_decide(cfg_.tag, *decision_, round_);
          }
          x_ = v;
          resolved = true;
          break;
        }
        if (marked[v] >= cfg_.f + 1) {
          x_ = v;
          resolved = true;
          break;
        }
      }
      if (!resolved) x_ = static_cast<std::uint8_t>(ctx.rng().next_below(2));
      step_ = 1;
      ++round_;
      ctx.note_round(round_);
    }

    if ((decision_ && round_ > decision_round_ + cfg_.extra_rounds) ||
        round_ >= cfg_.max_rounds) {
      halted_ = true;
      return;
    }
    StepState& next = step_state(ctx, round_, step_);
    if (!next.broadcast_done) {
      next.broadcast_done = true;
      Writer w;
      w.u8(x_);
      next.rbc->broadcast(ctx, w.take());
    }
  }
}

}  // namespace coincidence::ba
