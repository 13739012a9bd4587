// Tests for the Table-1 baseline protocols: Ben-Or, Bracha, and MMR
// (the latter wired to both the Algorithm-1 shared coin and the Rabin
// dealer coin).
#include <gtest/gtest.h>

#include "ba/ben_or.h"
#include "ba/bracha.h"
#include "ba/mmr.h"
#include "ba_harness.h"
#include "coin/dealer_coin.h"
#include "coin/shared_coin.h"
#include "common/errors.h"
#include "crypto/fast_vrf.h"

namespace coincidence::ba {
namespace {

using testing::BaRunResult;
using testing::BaRunSpec;
using testing::mixed_inputs;
using testing::run_ba;

// ------------------------------------------------------------- Ben-Or --

testing::BaFactory ben_or_factory(std::size_t n, std::size_t f) {
  return [n, f](sim::ProcessId, Value input) {
    BenOr::Config cfg;
    cfg.n = n;
    cfg.f = f;
    return std::make_unique<BenOr>(cfg, input);
  };
}

TEST(BenOr, ValidityUnanimous) {
  for (Value v : {kZero, kOne}) {
    BaRunSpec spec;
    spec.n = 6;
    spec.seed = 3 + v;
    spec.inputs = std::vector<Value>(6, v);
    BaRunResult r = run_ba(spec, ben_or_factory(6, 1));
    ASSERT_TRUE(r.all_correct_decided());
    EXPECT_EQ(*r.agreement(), static_cast<int>(v));
    EXPECT_EQ(r.max_decided_round(), 0u);  // unanimity decides in round 0
  }
}

TEST(BenOr, AgreementOnSplitInputs) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    BaRunSpec spec;
    spec.n = 6;
    spec.seed = 100 + seed;
    spec.inputs = mixed_inputs(6, 3);
    BaRunResult r = run_ba(spec, ben_or_factory(6, 1));
    ASSERT_TRUE(r.all_correct_decided()) << seed;
    EXPECT_TRUE(r.agreement().has_value()) << seed;
  }
}

TEST(BenOr, ToleratesOneByzantine) {
  BaRunSpec spec;
  spec.n = 6;
  spec.seed = 9;
  spec.f_budget = 1;
  spec.inputs = std::vector<Value>(6, kOne);
  spec.corruptions = {{5, sim::FaultPlan::junk()}};
  BaRunResult r = run_ba(spec, ben_or_factory(6, 1));
  ASSERT_TRUE(r.all_correct_decided());
  EXPECT_EQ(*r.agreement(), 1);
}

TEST(BenOr, RequiresN5f) {
  BenOr::Config cfg;
  cfg.n = 5;
  cfg.f = 1;
  EXPECT_THROW(BenOr(cfg, kZero), PreconditionError);
}

TEST(BenOr, LocalCoinCanTakeMultipleRounds) {
  // With split inputs some seeds need > 1 round — the qualitative cost of
  // a local coin (the scaling story lives in bench/table1_comparison).
  std::uint64_t max_round = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    BaRunSpec spec;
    spec.n = 6;
    spec.seed = 1000 + seed;
    spec.inputs = mixed_inputs(6, 3);
    BaRunResult r = run_ba(spec, ben_or_factory(6, 1));
    if (r.all_correct_decided()) max_round = std::max(max_round, r.max_decided_round());
  }
  EXPECT_GE(max_round, 1u);
}

// ------------------------------------------------------------- Bracha --

testing::BaFactory bracha_factory(std::size_t n, std::size_t f) {
  return [n, f](sim::ProcessId, Value input) {
    Bracha::Config cfg;
    cfg.n = n;
    cfg.f = f;
    return std::make_unique<Bracha>(cfg, input);
  };
}

TEST(Bracha, ValidityUnanimous) {
  for (Value v : {kZero, kOne}) {
    BaRunSpec spec;
    spec.n = 7;
    spec.seed = 5 + v;
    spec.inputs = std::vector<Value>(7, v);
    BaRunResult r = run_ba(spec, bracha_factory(7, 2));
    ASSERT_TRUE(r.all_correct_decided());
    EXPECT_EQ(*r.agreement(), static_cast<int>(v));
  }
}

TEST(Bracha, AgreementOnSplitInputs) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    BaRunSpec spec;
    spec.n = 7;
    spec.seed = 40 + seed;
    spec.inputs = mixed_inputs(7, 3);
    BaRunResult r = run_ba(spec, bracha_factory(7, 2));
    ASSERT_TRUE(r.all_correct_decided()) << seed;
    EXPECT_TRUE(r.agreement().has_value()) << seed;
  }
}

TEST(Bracha, ToleratesFByzantine) {
  BaRunSpec spec;
  spec.n = 7;
  spec.seed = 8;
  spec.f_budget = 2;
  spec.inputs = std::vector<Value>(7, kZero);
  spec.corruptions = {{5, sim::FaultPlan::crash()},
                      {6, sim::FaultPlan::junk()}};
  BaRunResult r = run_ba(spec, bracha_factory(7, 2));
  ASSERT_TRUE(r.all_correct_decided());
  EXPECT_EQ(*r.agreement(), 0);
}

TEST(Bracha, RequiresN3f) {
  Bracha::Config cfg;
  cfg.n = 6;
  cfg.f = 2;
  EXPECT_THROW(Bracha(cfg, kZero), PreconditionError);
}

TEST(Bracha, UsesCubicMessageBudget) {
  // n RBC broadcasts per step, each O(n²) messages: the baseline's
  // complexity signature that Table 1 contrasts against.
  BaRunSpec spec;
  spec.n = 7;
  spec.seed = 6;
  spec.inputs = std::vector<Value>(7, kOne);
  BaRunResult r = run_ba(spec, bracha_factory(7, 2));
  ASSERT_TRUE(r.all_correct_decided());
  EXPECT_GT(r.total_messages, 7ull * 7 * 7);  // > n³ even on the fast path
}

// ---------------------------------------------------------------- MMR --

struct MmrSharedCoinFixture {
  explicit MmrSharedCoinFixture(std::size_t n, std::size_t f,
                                std::uint64_t key_seed = 13)
      : n(n),
        f(f),
        registry(crypto::KeyRegistry::create_for(n, key_seed)),
        vrf(std::make_shared<crypto::FastVrf>(registry)),
        batcher(std::make_shared<coin::BatchVerifier>(
            coin::BatchVerifier::Config{vrf})) {}

  testing::BaFactory factory() const {
    return [this](sim::ProcessId, Value input) {
      Mmr::Config cfg;
      cfg.n = n;
      cfg.f = f;
      cfg.make_coin = [this](std::uint64_t round, const std::string& tag) {
        coin::SharedCoin::Config ccfg;
        ccfg.tag = tag;
        ccfg.round = round;
        ccfg.n = n;
        ccfg.f = f;
        ccfg.vrf = vrf;
        ccfg.registry = registry;
        ccfg.batcher = batcher;
        return std::make_unique<coin::SharedCoin>(ccfg);
      };
      return std::make_unique<Mmr>(cfg, input);
    };
  }

  std::size_t n, f;
  std::shared_ptr<crypto::KeyRegistry> registry;
  std::shared_ptr<crypto::FastVrf> vrf;
  std::shared_ptr<coin::BatchVerifier> batcher;
};

TEST(MmrSharedCoin, ValidityUnanimous) {
  MmrSharedCoinFixture fx(10, 3);
  for (Value v : {kZero, kOne}) {
    BaRunSpec spec;
    spec.n = 10;
    spec.seed = 21 + v;
    spec.inputs = std::vector<Value>(10, v);
    BaRunResult r = run_ba(spec, fx.factory());
    ASSERT_TRUE(r.all_correct_decided());
    EXPECT_EQ(*r.agreement(), static_cast<int>(v));
  }
}

TEST(MmrSharedCoin, AgreementOnSplitInputs) {
  MmrSharedCoinFixture fx(10, 3);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    BaRunSpec spec;
    spec.n = 10;
    spec.seed = 300 + seed;
    spec.inputs = mixed_inputs(10, 5);
    BaRunResult r = run_ba(spec, fx.factory());
    ASSERT_TRUE(r.all_correct_decided()) << seed;
    EXPECT_TRUE(r.agreement().has_value()) << seed;
  }
}

TEST(MmrSharedCoin, ToleratesFByzantine) {
  MmrSharedCoinFixture fx(10, 3);
  BaRunSpec spec;
  spec.n = 10;
  spec.seed = 17;
  spec.f_budget = 3;
  spec.inputs = mixed_inputs(10, 4);
  spec.corruptions = {{0, sim::FaultPlan::silent()},
                      {4, sim::FaultPlan::crash()},
                      {9, sim::FaultPlan::junk()}};
  BaRunResult r = run_ba(spec, fx.factory());
  ASSERT_TRUE(r.all_correct_decided());
  EXPECT_TRUE(r.agreement().has_value());
}

TEST(MmrSharedCoin, ConstantExpectedRounds) {
  MmrSharedCoinFixture fx(10, 3);
  std::uint64_t worst = 0;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    BaRunSpec spec;
    spec.n = 10;
    spec.seed = 600 + seed;
    spec.inputs = mixed_inputs(10, 5);
    BaRunResult r = run_ba(spec, fx.factory());
    ASSERT_TRUE(r.all_correct_decided()) << seed;
    worst = std::max(worst, r.max_decided_round());
  }
  EXPECT_LE(worst, 10u);  // shared coin => geometric tail, small constant
}

struct MmrDealerFixture {
  MmrDealerFixture(std::size_t n, std::size_t f)
      : n(n),
        f(f),
        setup(std::make_shared<coin::DealerCoinSetup>(n, f, 256, 99)) {}

  testing::BaFactory factory() const {
    return [this](sim::ProcessId, Value input) {
      Mmr::Config cfg;
      cfg.tag = "rabin";
      cfg.n = n;
      cfg.f = f;
      cfg.make_coin = [this](std::uint64_t round, const std::string& tag) {
        coin::DealerCoin::Config ccfg;
        ccfg.tag = tag;
        ccfg.round = round;
        ccfg.setup = setup;
        return std::make_unique<coin::DealerCoin>(ccfg);
      };
      return std::make_unique<Mmr>(cfg, input);
    };
  }

  std::size_t n, f;
  std::shared_ptr<coin::DealerCoinSetup> setup;
};

TEST(MmrDealerCoin, RabinStyleAgreementAndTermination) {
  MmrDealerFixture fx(10, 3);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    BaRunSpec spec;
    spec.n = 10;
    spec.seed = 70 + seed;
    spec.inputs = mixed_inputs(10, 5);
    BaRunResult r = run_ba(spec, fx.factory());
    ASSERT_TRUE(r.all_correct_decided()) << seed;
    EXPECT_TRUE(r.agreement().has_value()) << seed;
  }
}

TEST(MmrDealerCoin, PerfectCoinDecidesFast) {
  MmrDealerFixture fx(10, 3);
  std::uint64_t worst = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    BaRunSpec spec;
    spec.n = 10;
    spec.seed = 90 + seed;
    spec.inputs = mixed_inputs(10, 5);
    BaRunResult r = run_ba(spec, fx.factory());
    ASSERT_TRUE(r.all_correct_decided());
    worst = std::max(worst, r.max_decided_round());
  }
  EXPECT_LE(worst, 12u);
}

TEST(Mmr, RejectsBadConstruction) {
  Mmr::Config cfg;
  cfg.n = 9;
  cfg.f = 3;  // n > 3f violated
  cfg.make_coin = [](std::uint64_t, const std::string&) {
    return std::unique_ptr<coin::CoinProtocol>();
  };
  EXPECT_THROW(Mmr(cfg, kZero), PreconditionError);
  cfg.n = 10;
  cfg.make_coin = nullptr;
  EXPECT_THROW(Mmr(cfg, kZero), PreconditionError);
}

}  // namespace
}  // namespace coincidence::ba
