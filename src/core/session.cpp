#include "core/session.h"

#include "ba/ba_whp.h"
#include "ba/instance_mux.h"
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
    // Tags look like "slot<k>/..."; parse k off the resolved string.
    const std::string& tag = msg.tag.str();
    constexpr std::size_t kPrefixLen = 4;  // "slot"
    if (tag.size() <= kPrefixLen || tag.compare(0, kPrefixLen, "slot") != 0)
      return;
    std::size_t k = 0;
    std::size_t i = kPrefixLen;
    bool any = false;
    while (i < tag.size() && tag[i] >= '0' && tag[i] <= '9') {
      k = k * 10 + static_cast<std::size_t>(tag[i] - '0');
      ++i;
      any = true;
    }
    if (any && k < words_.size()) words_[k] += msg.words;
  }

  std::uint64_t words_of(std::size_t slot) const { return words_.at(slot); }

 private:
  std::vector<std::uint64_t> words_;
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

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = silent_faults;
  cfg.seed = seed;
  cfg.shards = options_.shards;
  cfg.threads = options_.threads;
  sim::Simulation sim(cfg);
  auto slot_words = std::make_shared<SlotWordObserver>(slots);
  sim.add_observer(slot_words);

  for (sim::ProcessId i = 0; i < n; ++i) {
    // Sharded handlers run concurrently: one crypto lane per process.
    Env::CryptoLane lane{env_.sampler, env_.batcher};
    if (cfg.shards > 0) lane = env_.new_lane();
    auto mux = std::make_unique<ba::InstanceMux>();
    for (std::size_t slot = 0; slot < slots; ++slot) {
      ba::BaWhp::Config bcfg;
      bcfg.tag = "slot" + std::to_string(slot);
      bcfg.params = env_.params;
      bcfg.vrf = env_.vrf;
      bcfg.registry = env_.registry;
      bcfg.sampler = lane.sampler;
      bcfg.signer = env_.signer;
      if (defer_verify_) bcfg.batcher = lane.batcher;
      bcfg.max_rounds = max_rounds;
      bcfg.skip_timeout = options_.skip_timeout;
      bcfg.skip_max_attempts = options_.skip_max_attempts;
      mux->add_instance("slot" + std::to_string(slot),
                        std::make_unique<ba::BaWhp>(bcfg, inputs[slot][i]));
    }
    sim.add_process(std::move(mux));
  }
  sim::ProcessId next = static_cast<sim::ProcessId>(n);
  for (std::size_t i = 0; i < silent_faults; ++i)
    sim.corrupt(--next, sim::FaultPlan::silent());

  sim.start();
  sim.run_until([&] {
    for (sim::ProcessId i = 0; i < n; ++i) {
      if (sim.is_corrupted(i)) continue;
      if (!dynamic_cast<ba::InstanceMux&>(sim.process(i)).all_decided())
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
      auto& mux = dynamic_cast<ba::InstanceMux&>(sim.process(i));
      auto& ba = mux.instance("slot" + std::to_string(slot));
      if (const auto* whp = dynamic_cast<const ba::BaWhp*>(&ba)) {
        sr.max_round_reached =
            std::max(sr.max_round_reached, whp->current_round());
        sr.rounds_skipped += whp->rounds_skipped();
        sr.cert_decisions += whp->decided_by_certificate() ? 1 : 0;
      }
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
