#include "core/coin_runner.h"

#include "coin/dealer_coin.h"
#include "coin/shared_coin.h"
#include "coin/whp_coin.h"
#include "common/errors.h"
#include "sim/simulation.h"

namespace coincidence::core {

const char* coin_name(CoinKind k) {
  switch (k) {
    case CoinKind::kShared: return "shared-coin";
    case CoinKind::kWhp: return "whp-coin";
    case CoinKind::kDealer: return "dealer-coin";
  }
  return "unknown";
}

CoinReport run_coin_trial(const CoinOptions& options) {
  Env env = Env::make(options.n, options.epsilon, options.d,
                      options.seed ^ 0xc2b2ae3d27d4eb4fULL,
                      /*strict=*/false);
  const std::size_t f = env.params.f;
  const std::size_t bias_budget = std::min(options.bias_budget, f);
  COIN_REQUIRE(options.silent + bias_budget <= std::max<std::size_t>(f, 1),
               "run_coin_trial: fault mix exceeds f");

  std::shared_ptr<coin::DealerCoinSetup> dealer_setup;
  if (options.kind == CoinKind::kDealer) {
    dealer_setup = std::make_shared<coin::DealerCoinSetup>(
        options.n, std::max<std::size_t>(f, 1), options.round + 1,
        options.seed + 3);
  }

  auto make_coin = [&](sim::ProcessId) -> std::unique_ptr<coin::CoinProtocol> {
    switch (options.kind) {
      case CoinKind::kShared: {
        coin::SharedCoin::Config cfg;
        cfg.tag = "coin";
        cfg.round = options.round;
        cfg.n = options.n;
        cfg.f = f;
        cfg.vrf = env.vrf;
        cfg.registry = env.registry;
        cfg.batcher = env.batcher;
        return std::make_unique<coin::SharedCoin>(cfg);
      }
      case CoinKind::kWhp: {
        coin::WhpCoin::Config cfg{env};
        cfg.tag = "coin";
        cfg.round = options.round;
        return std::make_unique<coin::WhpCoin>(cfg);
      }
      case CoinKind::kDealer: {
        coin::DealerCoin::Config cfg;
        cfg.tag = "coin";
        cfg.round = options.round;
        cfg.setup = dealer_setup;
        return std::make_unique<coin::DealerCoin>(cfg);
      }
    }
    throw PreconditionError("run_coin_trial: unknown coin kind");
  };

  sim::SimConfig scfg;
  scfg.n = options.n;
  scfg.f = options.silent + bias_budget;
  scfg.seed = options.seed;
  scfg.fairness_bound = options.fairness_bound;
  scfg.allow_content_visibility = options.content_aware_bias;
  COIN_REQUIRE(options.shards == 0 ||
                   (options.delay_senders == 0 && !options.content_aware_bias),
               "run_coin_trial: scheduling adversaries need the legacy loop");
  scfg.shards = options.shards;
  sim::Simulation sim(scfg);
  for (sim::ProcessId i = 0; i < options.n; ++i)
    sim.add_process(std::make_unique<coin::CoinHost>(make_coin(i)));
  if (options.content_aware_bias) {
    sim.set_adversary(std::make_unique<sim::CoinBiasAdversary>(
        "first", options.bias_toward));
  } else if (options.delay_senders > 0) {
    std::vector<sim::ProcessId> victims;
    for (std::size_t i = 0; i < options.delay_senders && i < options.n; ++i)
      victims.push_back(static_cast<sim::ProcessId>(i));
    sim.set_adversary(
        std::make_unique<sim::DelaySendersAdversary>(std::move(victims)));
  }
  sim::ProcessId next = static_cast<sim::ProcessId>(options.n);
  for (std::size_t i = 0; i < options.silent; ++i)
    sim.corrupt(--next, sim::FaultPlan::silent());

  sim.start();
  sim.run();

  CoinReport report;
  report.outputs.resize(options.n);
  report.all_returned = true;
  std::optional<int> bit;
  bool agreed = true;
  for (sim::ProcessId i = 0; i < options.n; ++i) {
    const auto& coin = dynamic_cast<coin::CoinHost&>(sim.process(i)).coin();
    if (coin.done()) report.outputs[i] = coin.output();
    if (sim.is_corrupted(i)) continue;
    if (!report.outputs[i]) {
      report.all_returned = false;
      agreed = false;
      continue;
    }
    if (!bit) bit = report.outputs[i];
    if (*bit != *report.outputs[i]) agreed = false;
  }
  if (agreed && bit) report.agreed_bit = bit;
  report.correct_words = sim.metrics().correct_words();
  for (sim::ProcessId i = 0; i < options.n; ++i)
    report.duration = std::max(report.duration, sim.depth_of(i));
  return report;
}

}  // namespace coincidence::core
