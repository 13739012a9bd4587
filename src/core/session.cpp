#include "core/session.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "ba/ba_whp.h"
#include "ba/instance_router.h"
#include "common/errors.h"
#include "sim/observer.h"
#include "sim/simulation.h"

namespace coincidence::core {

namespace {

/// Attributes correct-sender words to the slot named by the first tag
/// segment — the per-slot cost split SessionReport exposes.
class SlotWordObserver final : public sim::Observer {
 public:
  explicit SlotWordObserver(std::size_t slots) : words_(slots, 0) {}

  void on_send(const sim::Message& msg, bool sender_correct) override {
    if (!sender_correct) return;
    const auto k = sim::tag_index(msg.tag.str(), "slot");
    if (k && *k < words_.size()) words_[*k] += msg.words;
  }

  std::uint64_t words_of(std::size_t slot) const { return words_.at(slot); }

 private:
  std::vector<std::uint64_t> words_;
};

/// One process's share of a session: a BaWhp per slot, tagged
/// "slot<k>". Slots start and take wakeups in ascending tag-string order
/// (slot0, slot1, slot10, ...), the order every recorded Session run was
/// made in, so runs stay byte-identical at every slot count.
class SlotHost final : public sim::Process {
 public:
  explicit SlotHost(std::size_t slots) : slots_("slot", slots), order_(slots) {
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(), [](std::size_t a, std::size_t b) {
      return std::to_string(a) < std::to_string(b);
    });
  }

  ba::InstanceRouter<ba::BaWhp>& slots() { return slots_; }

  void on_start(sim::Context& ctx) override {
    for (std::size_t k : order_) slots_[k].on_start(ctx);
  }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    slots_.deliver(ctx, msg);
  }
  void on_wakeup(sim::Context& ctx) override {
    for (std::size_t k : order_) slots_[k].on_wakeup(ctx);
  }

  bool all_decided() const {
    return std::all_of(slots_.children().begin(), slots_.children().end(),
                       [](const auto& slot) { return slot->decided(); });
  }

 private:
  ba::InstanceRouter<ba::BaWhp> slots_;
  std::vector<std::size_t> order_;
};

}  // namespace

Session::Session(Env env) : env_(std::move(env)) {}

SessionReport Session::run_concurrent_slots(
    const std::vector<std::vector<ba::Value>>& inputs, std::uint64_t seed,
    std::size_t silent_faults, std::uint64_t max_rounds) {
  const std::size_t slots = inputs.size();
  const std::size_t n = env_.n();
  COIN_REQUIRE(slots > 0, "Session: need at least one slot");
  for (const auto& slot_inputs : inputs)
    COIN_REQUIRE(slot_inputs.size() == n, "Session: inputs size != n");
  COIN_REQUIRE(silent_faults <= std::max<std::size_t>(env_.f(), 0),
               "Session: faults exceed f");
  env_.params.require_reachable_quorum(silent_faults);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = silent_faults;
  cfg.seed = seed;
  sim::Simulation sim(cfg);
  auto slot_words = std::make_shared<SlotWordObserver>(slots);
  sim.add_observer(slot_words);

  for (sim::ProcessId i = 0; i < n; ++i) {
    auto host = std::make_unique<SlotHost>(slots);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      ba::BaWhp::Config bcfg{env_};
      bcfg.tag = "slot" + std::to_string(slot);
      bcfg.max_rounds = max_rounds;
      bcfg.skip_timeout = ba::auto_skip_timeout(n, slots);
      host->slots().add(std::make_unique<ba::BaWhp>(bcfg, inputs[slot][i]));
    }
    sim.add_process(std::move(host));
  }
  sim::ProcessId next = static_cast<sim::ProcessId>(n);
  for (std::size_t i = 0; i < silent_faults; ++i)
    sim.corrupt(--next, sim::FaultPlan::silent());

  sim.start();
  sim.run_until([&] {
    for (sim::ProcessId i = 0; i < n; ++i) {
      if (sim.is_corrupted(i)) continue;
      if (!dynamic_cast<SlotHost&>(sim.process(i)).all_decided())
        return false;
    }
    return true;
  });

  SessionReport report;
  report.slots.resize(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    SlotReport& sr = report.slots[slot];
    sr.all_correct_decided = true;
    for (sim::ProcessId i = 0; i < n; ++i) {
      if (sim.is_corrupted(i)) continue;
      const ba::BaWhp& ba =
          dynamic_cast<SlotHost&>(sim.process(i)).slots()[slot];
      sr.max_round_reached =
          std::max(sr.max_round_reached, ba.current_round());
      sr.rounds_skipped += ba.rounds_skipped();
      sr.cert_decisions += ba.decided_by_certificate() ? 1 : 0;
      if (!ba.decided()) {
        sr.all_correct_decided = false;
        continue;
      }
      if (!sr.decision) sr.decision = ba.decision();
      if (*sr.decision != ba.decision()) sr.agreement = false;
      sr.max_decided_round = std::max(sr.max_decided_round, ba.decided_round());
    }
    if (!sr.all_correct_decided) sr.decision.reset();
    sr.correct_words = slot_words->words_of(slot);
  }
  report.correct_words = sim.metrics().correct_words();
  report.messages = sim.metrics().messages_sent();
  for (sim::ProcessId i = 0; i < n; ++i)
    report.duration = std::max(report.duration, sim.depth_of(i));
  return report;
}

}  // namespace coincidence::core
