// End-to-end interchangeability check: the protocols run unchanged over
// the *real* DDH-VRF backend (Chaum–Pedersen DLEQ over a safe-prime
// group), not just the simulation-grade FastVrf. Small n and a small
// group keep it test-sized; the crypto path is identical to a
// production-parameter deployment.
#include <gtest/gtest.h>

#include "coin/whp_coin.h"
#include "core/env.h"
#include "sim/simulation.h"

namespace coincidence::core {
namespace {

TEST(DdhIntegration, WhpCoinRunsOverRealVrf) {
  const std::size_t n = 24;
  Env env = Env::make_relaxed_ddh(n, 7);
  EXPECT_STREQ(env.vrf->name(), "ddh-vrf");

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = 5;
  sim::Simulation sim(cfg);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    coin::WhpCoin::Config ccfg{env};
    ccfg.tag = "coin";
    ccfg.round = 0;
    sim.add_process(
        std::make_unique<coin::CoinHost>(std::make_unique<coin::WhpCoin>(ccfg)));
  }
  sim.start();
  sim.run();

  std::optional<int> bit;
  std::size_t returned = 0;
  for (crypto::ProcessId i = 0; i < n; ++i) {
    const auto& coin = dynamic_cast<coin::CoinHost&>(sim.process(i)).coin();
    if (!coin.done()) continue;
    ++returned;
    if (!bit) bit = coin.output();
    EXPECT_EQ(*bit, coin.output()) << i;
  }
  EXPECT_EQ(returned, n);
}

TEST(DdhIntegration, SamplerProofsVerifyAcrossBackend) {
  Env env = Env::make_relaxed_ddh(12, 9);
  for (crypto::ProcessId i = 0; i < 12; ++i) {
    auto e = env.sampler->sample(i, "seed");
    EXPECT_EQ(env.sampler->committee_val("seed", i, e.proof), e.sampled) << i;
    // Cross-identity replay must fail exactly as with FastVrf.
    if (e.sampled)
      EXPECT_FALSE(
          env.sampler->committee_val("seed", (i + 1) % 12, e.proof));
  }
}

}  // namespace
}  // namespace coincidence::core
