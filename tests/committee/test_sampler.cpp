#include "committee/sampler.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/errors.h"

#include "common/stats.h"
#include "common/write_sink.h"
#include "crypto/fast_vrf.h"

namespace coincidence::committee {
namespace {

class SamplerTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 64;

  SamplerTest()
      : registry_(crypto::KeyRegistry::create_for(kN, 2024)),
        vrf_(std::make_shared<crypto::FastVrf>(registry_)),
        sampler_(std::make_shared<Sampler>(vrf_, registry_, 0.25)) {}

  std::shared_ptr<crypto::KeyRegistry> registry_;
  std::shared_ptr<crypto::FastVrf> vrf_;
  std::shared_ptr<Sampler> sampler_;
};

TEST_F(SamplerTest, ElectionIsDeterministic) {
  auto a = sampler_->sample(3, "seed");
  auto b = sampler_->sample(3, "seed");
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.proof, b.proof);
}

TEST_F(SamplerTest, HonestProofsVerify) {
  for (ProcessId i = 0; i < kN; ++i) {
    auto e = sampler_->sample(i, "round-1/first");
    EXPECT_EQ(sampler_->committee_val("round-1/first", i, e.proof), e.sampled);
  }
}

TEST_F(SamplerTest, NonMemberProofDoesNotValidateMembership) {
  // committee_val returns false for a correct proof of NON-membership.
  bool found_non_member = false;
  for (ProcessId i = 0; i < kN && !found_non_member; ++i) {
    auto e = sampler_->sample(i, "seed-x");
    if (!e.sampled) {
      found_non_member = true;
      EXPECT_FALSE(sampler_->committee_val("seed-x", i, e.proof));
    }
  }
  EXPECT_TRUE(found_non_member);
}

TEST_F(SamplerTest, ProofBoundToSeed) {
  // Find a process sampled for seed A; its proof must not validate for B.
  for (ProcessId i = 0; i < kN; ++i) {
    auto e = sampler_->sample(i, "seed-A");
    if (e.sampled) {
      EXPECT_FALSE(sampler_->committee_val("seed-B", i, e.proof));
      return;
    }
  }
  FAIL() << "no process sampled for seed-A at threshold 0.25";
}

TEST_F(SamplerTest, ProofBoundToIdentity) {
  for (ProcessId i = 0; i < kN; ++i) {
    auto e = sampler_->sample(i, "seed-C");
    if (e.sampled) {
      ProcessId other = (i + 1) % kN;
      EXPECT_FALSE(sampler_->committee_val("seed-C", other, e.proof));
      return;
    }
  }
  FAIL() << "no process sampled for seed-C";
}

TEST_F(SamplerTest, TamperedProofRejected) {
  for (ProcessId i = 0; i < kN; ++i) {
    auto e = sampler_->sample(i, "seed-D");
    if (e.sampled) {
      Bytes bad = e.proof;
      bad[bad.size() / 2] ^= 0x40;
      EXPECT_FALSE(sampler_->committee_val("seed-D", i, bad));
      return;
    }
  }
  FAIL() << "no process sampled for seed-D";
}

TEST_F(SamplerTest, GarbageProofRejected) {
  EXPECT_FALSE(sampler_->committee_val("s", 0, Bytes{}));
  EXPECT_FALSE(sampler_->committee_val("s", 0, bytes_of("garbage")));
  EXPECT_FALSE(sampler_->committee_val("s", kN + 5, Bytes{}));  // unknown id
}

TEST_F(SamplerTest, CommitteeSizeConcentratesAroundLambda) {
  // 200 committees at threshold 0.25 over 64 processes: mean size ≈ 16.
  std::vector<double> sizes;
  for (int c = 0; c < 200; ++c) {
    std::size_t size = 0;
    for (ProcessId i = 0; i < kN; ++i)
      if (sampler_->sample(i, "conc-" + std::to_string(c)).sampled) ++size;
    sizes.push_back(static_cast<double>(size));
  }
  Summary s = summarize(sizes);
  EXPECT_NEAR(s.mean, 16.0, 1.0);
  EXPECT_GT(s.stddev, 1.0);  // binomial, not degenerate
  EXPECT_LT(s.stddev, 8.0);
}

TEST_F(SamplerTest, DifferentSeedsGiveDifferentCommittees) {
  std::vector<ProcessId> a, b;
  for (ProcessId i = 0; i < kN; ++i) {
    if (sampler_->sample(i, "X").sampled) a.push_back(i);
    if (sampler_->sample(i, "Y").sampled) b.push_back(i);
  }
  EXPECT_NE(a, b);
}

TEST(Sampler, RejectsBadThreshold) {
  auto reg = crypto::KeyRegistry::create_for(4, 1);
  auto vrf = std::make_shared<crypto::FastVrf>(reg);
  EXPECT_THROW(Sampler(vrf, reg, 0.0), PreconditionError);
  EXPECT_THROW(Sampler(vrf, reg, 1.5), PreconditionError);
  EXPECT_THROW(Sampler(nullptr, reg, 0.5), PreconditionError);
}

TEST(Sampler, ElectionProbabilityMatchesThreshold) {
  // Property sweep: empirical election rate ≈ threshold.
  auto reg = crypto::KeyRegistry::create_for(256, 7);
  auto vrf = std::make_shared<crypto::FastVrf>(reg);
  for (double thr : {0.1, 0.5, 0.9}) {
    Sampler sampler(vrf, reg, thr);
    std::size_t elected = 0, trials = 0;
    for (int c = 0; c < 40; ++c)
      for (ProcessId i = 0; i < 256; ++i) {
        ++trials;
        if (sampler.sample(i, "p-" + std::to_string(c)).sampled) ++elected;
      }
    double rate = static_cast<double>(elected) / static_cast<double>(trials);
    EXPECT_NEAR(rate, thr, 0.02) << "threshold " << thr;
  }
}

}  // namespace
}  // namespace coincidence::committee

namespace coincidence::committee {
namespace {

TEST(CachingSampler, AgreesWithPlainSamplerEverywhere) {
  auto reg = crypto::KeyRegistry::create_for(32, 77);
  auto vrf = std::make_shared<crypto::FastVrf>(reg);
  Sampler plain(vrf, reg, 0.4);
  CachingSampler cached(vrf, reg, 0.4);
  for (ProcessId i = 0; i < 32; ++i) {
    for (const char* seed : {"a", "b", "a"}) {  // repeat to hit the cache
      auto p = plain.sample(i, seed);
      auto c = cached.sample(i, seed);
      EXPECT_EQ(p.sampled, c.sampled);
      EXPECT_EQ(p.proof, c.proof);
      EXPECT_EQ(plain.committee_val(seed, i, p.proof),
                cached.committee_val(seed, i, c.proof));
    }
  }
  EXPECT_EQ(cached.sample_cache_size(), 32u * 2u);  // "a" cached once
}

TEST(CachingSampler, CachesNegativeVerdictsToo) {
  auto reg = crypto::KeyRegistry::create_for(8, 78);
  auto vrf = std::make_shared<crypto::FastVrf>(reg);
  CachingSampler cached(vrf, reg, 0.4);
  Bytes garbage = bytes_of("not-a-proof");
  EXPECT_FALSE(cached.committee_val("s", 0, garbage));
  EXPECT_FALSE(cached.committee_val("s", 0, garbage));
  EXPECT_EQ(cached.val_cache_size(), 1u);
}

TEST(CachingSampler, DistinguishesProofsUnderOneKey) {
  // A forged proof and the honest proof for the same (seed, id) must get
  // independent verdicts — the cache key includes the proof bytes.
  auto reg = crypto::KeyRegistry::create_for(8, 79);
  auto vrf = std::make_shared<crypto::FastVrf>(reg);
  CachingSampler cached(vrf, reg, 0.99);  // nearly everyone sampled
  auto e = cached.sample(3, "s");
  ASSERT_TRUE(e.sampled);
  EXPECT_TRUE(cached.committee_val("s", 3, e.proof));
  Bytes forged = e.proof;
  forged[0] ^= 1;
  EXPECT_FALSE(cached.committee_val("s", 3, forged));
  EXPECT_TRUE(cached.committee_val("s", 3, e.proof));  // still cached true
}

TEST(CachingSampler, WritesUnderASinkWaitForTheDrain) {
  // The same calls on two samplers, one under a sink (a sharded handler
  // phase) and one without (the legacy loop).
  auto reg = crypto::KeyRegistry::create_for(8, 80);
  auto vrf = std::make_shared<crypto::FastVrf>(reg);
  const std::string seed = "s";
  auto calls = [&](const CachingSampler& s) {
    std::vector<Sampler::ValCheck> checks;
    std::vector<Bytes> forged;
    forged.reserve(8);
    std::vector<char> verdicts;
    for (ProcessId i = 0; i < 8; ++i) {
      const Sampler::Election e = s.sample(i, seed);
      EXPECT_EQ(s.committee_val(seed, i, e.proof), e.sampled);
      forged.push_back(e.proof);
      forged.back()[0] ^= 1;
      checks.push_back({&seed, i, forged.back()});
    }
    s.committee_val_batch(checks, verdicts);
    for (char v : verdicts) EXPECT_FALSE(v);
  };
  CachingSampler serial(vrf, reg, 0.99);
  calls(serial);

  CachingSampler deferred(vrf, reg, 0.99);
  WriteSink sink;
  {
    const WriteSink::Scope scope(sink);
    calls(deferred);
    EXPECT_EQ(deferred.sample_cache_size(), 0u);
    EXPECT_EQ(deferred.val_cache_size(), 0u);
  }
  sink.drain();
  EXPECT_EQ(deferred.sample_cache_size(), serial.sample_cache_size());
  EXPECT_EQ(deferred.val_cache_size(), serial.val_cache_size());
  // Each forged proof cached its own negative verdict beside the honest
  // one: 8 honest + 8 forged keys.
  EXPECT_EQ(deferred.val_cache_size(), 16u);
  calls(deferred);  // all hits now
  EXPECT_EQ(deferred.val_cache_size(), 16u);
}

}  // namespace
}  // namespace coincidence::committee
