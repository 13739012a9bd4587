#include "coin/shared_coin.h"

#include <gtest/gtest.h>

#include "coin_harness.h"
#include "committee/params.h"
#include "common/errors.h"
#include "common/ser.h"
#include "crypto/fast_vrf.h"

namespace coincidence::coin {
namespace {

using testing::CoinRunResult;
using testing::CoinRunSpec;
using testing::run_coin;

struct Fixture {
  explicit Fixture(std::size_t n, std::uint64_t key_seed = 42)
      : n(n),
        registry(crypto::KeyRegistry::create_for(n, key_seed)),
        vrf(std::make_shared<crypto::FastVrf>(registry)),
        batcher(std::make_shared<BatchVerifier>(BatchVerifier::Config{vrf})) {}

  testing::CoinFactory factory(std::size_t f, std::uint64_t round) const {
    return [this, f, round](crypto::ProcessId) {
      SharedCoin::Config cfg;
      cfg.tag = "coin/" + std::to_string(round);
      cfg.round = round;
      cfg.n = n;
      cfg.f = f;
      cfg.vrf = vrf;
      cfg.registry = registry;
      cfg.batcher = batcher;
      return std::make_unique<SharedCoin>(cfg);
    };
  }

  std::size_t n;
  std::shared_ptr<crypto::KeyRegistry> registry;
  std::shared_ptr<crypto::FastVrf> vrf;
  std::shared_ptr<BatchVerifier> batcher;
};

TEST(SharedCoin, AllCorrectProcessesReturnFaultFree) {
  Fixture fx(8);
  CoinRunSpec spec;
  spec.n = 8;
  CoinRunResult r = run_coin(spec, fx.factory(/*f=*/2, /*round=*/0));
  std::vector<bool> corrupted(8, false);
  EXPECT_TRUE(r.all_returned(corrupted));
  auto bit = r.unanimous(corrupted);
  ASSERT_TRUE(bit.has_value());  // fault-free FIFO-ish runs always agree
  EXPECT_TRUE(*bit == 0 || *bit == 1);
}

TEST(SharedCoin, TerminatesWithMaxCrashFaults) {
  // Lemma 4.11: liveness with up to f faulty processes.
  Fixture fx(10);
  CoinRunSpec spec;
  spec.n = 10;
  spec.f_budget = 3;
  spec.corruptions = {{0, sim::FaultPlan::crash()},
                      {1, sim::FaultPlan::silent()},
                      {2, sim::FaultPlan::crash()}};
  CoinRunResult r = run_coin(spec, fx.factory(/*f=*/3, /*round=*/1));
  std::vector<bool> corrupted(10, false);
  corrupted[0] = corrupted[1] = corrupted[2] = true;
  EXPECT_TRUE(r.all_returned(corrupted));
}

TEST(SharedCoin, JunkSendersDoNotBlockOrCrash) {
  Fixture fx(10);
  CoinRunSpec spec;
  spec.n = 10;
  spec.f_budget = 3;
  spec.corruptions = {{4, sim::FaultPlan::junk()},
                      {7, sim::FaultPlan::junk()}};
  CoinRunResult r = run_coin(spec, fx.factory(/*f=*/3, /*round=*/2));
  std::vector<bool> corrupted(10, false);
  corrupted[4] = corrupted[7] = true;
  EXPECT_TRUE(r.all_returned(corrupted));
}

TEST(SharedCoin, AgreementRateMeetsPaperBoundFaultFree) {
  // Theorem 4.13 with ε = 1/3 (f = 0): success rate >= 1/2 per bit value,
  // i.e. the processes agree in every run with probability ~1 here
  // because with f=0 every process waits for all n firsts. Check both
  // agreement and rough balance of the output bit.
  Fixture fx(8);
  int agree = 0;
  int ones = 0;
  const int kRuns = 200;
  for (int run = 0; run < kRuns; ++run) {
    CoinRunSpec spec;
    spec.n = 8;
    spec.seed = 1000 + run;
    CoinRunResult r = run_coin(spec, fx.factory(/*f=*/0, /*round=*/run));
    std::vector<bool> corrupted(8, false);
    auto bit = r.unanimous(corrupted);
    if (bit) {
      ++agree;
      ones += *bit;
    }
  }
  EXPECT_EQ(agree, kRuns);  // f=0: everyone folds the same n values
  EXPECT_GT(ones, kRuns / 4);
  EXPECT_LT(ones, 3 * kRuns / 4);
}

TEST(SharedCoin, AgreementRateUnderAdversarialSchedulingMeetsBound) {
  // n=16, f=1 ≈ (1/3−ε)n with ε≈0.27: analytic success rate per value of b
  // is (18ε²+24ε−1)/(6(1+6ε)) ≈ 0.42; agreement (either b) >= 2*0.42.
  // Random asynchrony should comfortably beat that.
  Fixture fx(16);
  int agree = 0;
  const int kRuns = 150;
  for (int run = 0; run < kRuns; ++run) {
    CoinRunSpec spec;
    spec.n = 16;
    spec.seed = 5000 + run;
    CoinRunResult r = run_coin(spec, fx.factory(/*f=*/1, /*round=*/run));
    if (r.unanimous(std::vector<bool>(16, false))) ++agree;
  }
  double rate = static_cast<double>(agree) / kRuns;
  double bound = 2.0 * committee::coin_success_lower_bound(1.0 / 3.0 - 1.0 / 16.0);
  EXPECT_GE(rate, bound);
}

TEST(SharedCoin, WordComplexityIsTwoBroadcastRounds) {
  Fixture fx(12);
  CoinRunSpec spec;
  spec.n = 12;
  CoinRunResult r = run_coin(spec, fx.factory(/*f=*/0, /*round=*/3));
  // 2 phases * n senders * n receivers * 2 words.
  EXPECT_EQ(r.correct_words, 2u * 12u * 12u * 2u);
}

TEST(SharedCoin, DurationIsConstantDepth) {
  Fixture fx(12);
  CoinRunSpec spec;
  spec.n = 12;
  CoinRunResult r = run_coin(spec, fx.factory(/*f=*/3, /*round=*/4));
  // The minimal chain is first -> second (depth 2); asynchrony can chain
  // through other processes' seconds (a process may observe a depth-2
  // second before emitting its own), so the depth is a small constant,
  // not exactly 2. The bench rounds_to_decide checks it stays flat in n.
  EXPECT_GE(r.duration, 2u);
  EXPECT_LE(r.duration, 8u);
}

// -- adversarial-input robustness ----------------------------------------

class ForgedValueEnv : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 6;
  ForgedValueEnv()
      : registry_(crypto::KeyRegistry::create_for(kN, 9)),
        vrf_(std::make_shared<crypto::FastVrf>(registry_)),
        batcher_(
            std::make_shared<BatchVerifier>(BatchVerifier::Config{vrf_})) {}

  std::unique_ptr<SharedCoin> make_coin(std::size_t f) const {
    SharedCoin::Config cfg;
    cfg.tag = "coin/0";
    cfg.round = 0;
    cfg.n = kN;
    cfg.f = f;
    cfg.vrf = vrf_;
    cfg.registry = registry_;
    cfg.batcher = batcher_;
    return std::make_unique<SharedCoin>(cfg);
  }

  std::shared_ptr<crypto::KeyRegistry> registry_;
  std::shared_ptr<crypto::FastVrf> vrf_;
  std::shared_ptr<BatchVerifier> batcher_;
};

TEST_F(ForgedValueEnv, ForgedMinimumIsIgnored) {
  // A Byzantine process injects a <second> carrying an all-zero "minimum"
  // with a junk proof: every correct process must discard it.
  sim::SimConfig cfg;
  cfg.n = kN;
  cfg.f = 1;
  cfg.seed = 3;
  sim::Simulation sim(cfg);
  for (crypto::ProcessId i = 0; i < kN; ++i)
    sim.add_process(std::make_unique<CoinHost>(make_coin(1)));
  sim.corrupt(5, sim::FaultPlan::silent());
  sim.start();

  Writer w;
  w.blob(Bytes(32, 0)).u32(2).blob(bytes_of("fake-proof"));
  for (crypto::ProcessId to = 0; to < kN - 1; ++to)
    sim.inject(5, to, "coin/0/second", w.bytes(), 2);
  sim.run();

  for (crypto::ProcessId i = 0; i < kN - 1; ++i) {
    const auto& host = dynamic_cast<CoinHost&>(sim.process(i));
    ASSERT_TRUE(host.coin().done());
    const auto& coin = dynamic_cast<const SharedCoin&>(host.coin());
    EXPECT_NE(coin.current_min_value(), Bytes(32, 0));
  }
}

TEST_F(ForgedValueEnv, FirstMessageMustCarrySendersOwnValue) {
  // Byzantine 5 replays process 0's (valid) VRF value as its own <first>:
  // receivers must reject origin != sender for firsts.
  sim::SimConfig cfg;
  cfg.n = kN;
  cfg.f = 1;
  cfg.seed = 4;
  sim::Simulation sim(cfg);
  std::vector<SharedCoin*> coins;
  for (crypto::ProcessId i = 0; i < kN; ++i) {
    auto coin = make_coin(1);
    coins.push_back(coin.get());
    sim.add_process(std::make_unique<CoinHost>(std::move(coin)));
  }
  sim.corrupt(5, sim::FaultPlan::silent());
  sim.start();

  Writer inp;
  inp.str("shared-coin").u64(0);
  crypto::VrfOutput honest = vrf_->eval(registry_->sk_of(0), inp.bytes());
  Writer w;
  w.blob(honest.value).u32(0).blob(honest.proof);
  sim.inject(5, 1, "coin/0/first", w.bytes(), 2);
  sim.run();

  // Process 1 never counted the replay: its first-set reached n-f = 5
  // from senders {0,1,2,3,4} only, and the run completed.
  EXPECT_TRUE(coins[1]->done());
}

TEST_F(ForgedValueEnv, OutputBeforeDoneThrows) {
  auto coin = make_coin(1);
  EXPECT_THROW(coin->output(), PreconditionError);
}

TEST_F(ForgedValueEnv, RejectsBadConfig) {
  SharedCoin::Config cfg;
  cfg.tag = "c";
  cfg.round = 0;
  cfg.n = 4;
  cfg.f = 2;  // n - f <= f: quorum intersection impossible
  cfg.vrf = vrf_;
  cfg.registry = registry_;
  cfg.batcher = batcher_;
  EXPECT_THROW(SharedCoin{cfg}, PreconditionError);
  cfg.f = 1;
  cfg.vrf = nullptr;
  EXPECT_THROW(SharedCoin{cfg}, PreconditionError);
}

TEST_F(ForgedValueEnv, DoneCallbackFiresExactlyOnce) {
  sim::SimConfig cfg;
  cfg.n = kN;
  cfg.seed = 8;
  sim::Simulation sim(cfg);
  int fired = 0;
  for (crypto::ProcessId i = 0; i < kN; ++i) {
    SharedCoin::Config ccfg;
    ccfg.tag = "coin/0";
    ccfg.round = 0;
    ccfg.n = kN;
    ccfg.f = 1;
    ccfg.vrf = vrf_;
    ccfg.registry = registry_;
    ccfg.batcher = batcher_;
    auto coin = std::make_unique<SharedCoin>(
        ccfg, i == 0 ? [&fired](int) { ++fired; } : SharedCoin::DoneFn{});
    sim.add_process(std::make_unique<CoinHost>(std::move(coin)));
  }
  sim.start();
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(SharedCoinProperty, MinimumWinsUnderFifo) {
  // With FIFO scheduling and f=0 every process receives every first
  // before any second threshold is hit, so the output must be the LSB of
  // the global minimum VRF value — check across rounds.
  Fixture fx(9);
  Writer inp;
  for (std::uint64_t round = 0; round < 20; ++round) {
    // Compute expected global min offline.
    Writer w;
    w.str("shared-coin").u64(round);
    Bytes min_value;
    for (crypto::ProcessId i = 0; i < 9; ++i) {
      auto out = fx.vrf->eval(fx.registry->sk_of(i), w.bytes());
      if (min_value.empty() || out.value < min_value) min_value = out.value;
    }
    int expected = min_value.back() & 1;

    CoinRunSpec spec;
    spec.n = 9;
    spec.seed = round;
    spec.adversary = [] { return std::make_unique<sim::FifoAdversary>(); };
    CoinRunResult r = run_coin(spec, fx.factory(/*f=*/0, round));
    auto bit = r.unanimous(std::vector<bool>(9, false));
    ASSERT_TRUE(bit.has_value()) << "round " << round;
    EXPECT_EQ(*bit, expected) << "round " << round;
  }
}

}  // namespace
}  // namespace coincidence::coin
