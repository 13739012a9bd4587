// Word-accounting audit.
//
// Every bench result in EXPERIMENTS.md rests on the word counts protocols
// declare when sending (§2: a word holds a signature, a VRF output, or a
// finite-domain value). This suite runs each protocol with an observer
// that checks every message's declared count against the published
// schedule for its kind — so the complexity numbers cannot silently
// drift from the accounting the paper defines.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ba/ba_whp.h"
#include "ba/ben_or.h"
#include "ba/bracha.h"
#include "ba/mmr.h"
#include "coin/dealer_coin.h"
#include "coin/shared_coin.h"
#include "core/env.h"
#include "core/runner.h"
#include "sim/observer.h"
#include "sim/simulation.h"

namespace coincidence {
namespace {

/// Maps a tag's final component to the expected word count; -1 = unknown.
class WordAuditor final : public sim::Observer {
 public:
  explicit WordAuditor(std::map<std::string, std::size_t> schedule)
      : schedule_(std::move(schedule)) {}

  void on_send(const sim::Message& msg, bool sender_correct) override {
    if (!sender_correct) return;
    const std::string& tag = msg.tag.str();
    auto slash = tag.rfind('/');
    std::string kind =
        slash == std::string::npos ? tag : tag.substr(slash + 1);
    auto it = schedule_.find(kind);
    if (it == schedule_.end()) {
      unknown_kinds_.insert(kind);
      return;
    }
    ++audited_;
    if (msg.words != it->second)
      mismatches_.push_back(tag + ": declared " +
                            std::to_string(msg.words) + ", schedule " +
                            std::to_string(it->second));
  }

  std::size_t audited() const { return audited_; }
  const std::vector<std::string>& mismatches() const { return mismatches_; }
  const std::set<std::string>& unknown_kinds() const { return unknown_kinds_; }

 private:
  std::map<std::string, std::size_t> schedule_;
  std::size_t audited_ = 0;
  std::vector<std::string> mismatches_;
  std::set<std::string> unknown_kinds_;
};

TEST(WordAccounting, BaWhpMatchesPublishedSchedule) {
  core::Env env = core::Env::make_relaxed(48, 51);
  // §6.1 accounting: init = value + election proof; echo adds a
  // signature; ok = value + election proof + W (signature, election
  // proof) pairs; coin messages = value + VRF proof + election proof.
  auto auditor = std::make_shared<WordAuditor>(std::map<std::string, std::size_t>{
      {"init", 2},
      {"echo", 3},
      {"ok", 2 + 2 * env.params.W},
      {"first", 3},
      {"second", 3},
  });
  sim::SimConfig cfg;
  cfg.n = 48;
  cfg.seed = 3;
  sim::Simulation sim(cfg);
  sim.add_observer(auditor);
  for (crypto::ProcessId i = 0; i < 48; ++i) {
    ba::BaWhp::Config bcfg{env};
    bcfg.tag = "ba";
    sim.add_process(
        std::make_unique<ba::BaWhp>(bcfg, i < 24 ? ba::kOne : ba::kZero));
  }
  sim.start();
  sim.run_until([&] {
    for (crypto::ProcessId i = 0; i < 48; ++i)
      if (!dynamic_cast<ba::BaProcess&>(sim.process(i)).decided())
        return false;
    return true;
  });
  EXPECT_GT(auditor->audited(), 1000u);
  EXPECT_TRUE(auditor->mismatches().empty())
      << auditor->mismatches().front();
  EXPECT_TRUE(auditor->unknown_kinds().empty())
      << *auditor->unknown_kinds().begin();
}

TEST(WordAccounting, BaselinesMatchPublishedSchedules) {
  struct Case {
    core::Protocol protocol;
    std::size_t n;
    std::map<std::string, std::size_t> schedule;
  };
  const std::vector<Case> cases = {
      // Ben-Or: every message carries one finite-domain value.
      {core::Protocol::kBenOr, 11, {{"R", 1}, {"P", 1}}},
      // Bracha over RBC: initial carries the length-prefixed value
      // (1 word + 1 byte-word for the 1-byte BA payload); echo adds the
      // source id; ready ships source + the λ-word sha256 digest instead
      // of the payload.
      {core::Protocol::kBracha, 10, {{"initial", 2}, {"echo", 3}, {"ready", 5}}},
      // MMR + Algorithm-1 coin: bval/aux one value; coin = value + proof.
      {core::Protocol::kMmrSharedCoin, 13,
       {{"bval", 1}, {"aux", 1}, {"first", 2}, {"second", 2}}},
      // Rabin dealer: a share + the dealer's tag.
      {core::Protocol::kMmrDealerCoin, 13,
       {{"bval", 1}, {"aux", 1}, {"share", 2}}},
  };
  for (const Case& c : cases) {
    auto auditor = std::make_shared<WordAuditor>(c.schedule);
    // Drive through the public runner's construction by rebuilding the
    // same protocol stack manually with the observer attached.
    core::Env env = core::Env::make_relaxed(c.n, 52);
    std::size_t f = c.protocol == core::Protocol::kBenOr ? (c.n - 1) / 5
                                                         : (c.n - 1) / 3;
    auto dealer =
        std::make_shared<coin::DealerCoinSetup>(c.n, f, 64, 7);
    sim::SimConfig cfg;
    cfg.n = c.n;
    cfg.seed = 4;
    sim::Simulation sim(cfg);
    sim.add_observer(auditor);
    for (crypto::ProcessId i = 0; i < c.n; ++i) {
      ba::Value input = i % 2 ? ba::kOne : ba::kZero;
      switch (c.protocol) {
        case core::Protocol::kBenOr: {
          ba::BenOr::Config bc;
          bc.n = c.n;
          bc.f = f;
          sim.add_process(std::make_unique<ba::BenOr>(bc, input));
          break;
        }
        case core::Protocol::kBracha: {
          ba::Bracha::Config bc;
          bc.n = c.n;
          bc.f = f;
          sim.add_process(std::make_unique<ba::Bracha>(bc, input));
          break;
        }
        default: {
          ba::Mmr::Config mc;
          mc.tag = "mmr";
          mc.n = c.n;
          mc.f = f;
          bool shared = c.protocol == core::Protocol::kMmrSharedCoin;
          mc.make_coin = [&env, c, f, shared, dealer](
                             std::uint64_t round, const std::string& tag)
              -> std::unique_ptr<coin::CoinProtocol> {
            if (shared) {
              coin::SharedCoin::Config cc;
              cc.tag = tag;
              cc.round = round;
              cc.n = c.n;
              cc.f = f;
              cc.vrf = env.vrf;
              cc.registry = env.registry;
              cc.batcher = env.batcher;
              return std::make_unique<coin::SharedCoin>(cc);
            }
            coin::DealerCoin::Config cc;
            cc.tag = tag;
            cc.round = round;
            cc.setup = dealer;
            return std::make_unique<coin::DealerCoin>(cc);
          };
          sim.add_process(std::make_unique<ba::Mmr>(mc, input));
          break;
        }
      }
    }
    sim.start();
    sim.run_until([&] {
      for (crypto::ProcessId i = 0; i < c.n; ++i)
        if (!dynamic_cast<ba::BaProcess&>(sim.process(i)).decided())
          return false;
      return true;
    });
    EXPECT_GT(auditor->audited(), 50u) << core::protocol_name(c.protocol);
    EXPECT_TRUE(auditor->mismatches().empty())
        << core::protocol_name(c.protocol) << ": "
        << auditor->mismatches().front();
    EXPECT_TRUE(auditor->unknown_kinds().empty())
        << core::protocol_name(c.protocol) << ": "
        << *auditor->unknown_kinds().begin();
  }
}

TEST(WordAccounting, BrachaEcRbcMatchesPublishedSchedule) {
  // The erasure-coded dissemination backend, audited at n=16, f=5: the
  // echo set is m = 3f + 1 = 16 processes, so the Merkle tree has 16
  // leaves and every branch is exactly log2(16) = 4 digests:
  //   initial = size word + ⌈⌈|v|/k⌉/8⌉ fragment words + λ·4 branch words
  //   echo    = source word + λ root words + fragment + λ·4 branch words
  //   ready   = source word + λ composite-digest words.
  // The 1-byte BA payload at k = f+1 = 6 gives 1-byte fragments.
  const std::size_t n = 16, f = 5;
  auto auditor =
      std::make_shared<WordAuditor>(std::map<std::string, std::size_t>{
          {"initial", 1 + 1 + 4 * 4},
          {"echo", 1 + 4 + 1 + 4 * 4},
          {"ready", 1 + 4},
      });
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = 6;
  sim::Simulation sim(cfg);
  sim.add_observer(auditor);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    ba::Bracha::Config bc;
    bc.n = n;
    bc.f = f;
    bc.rbc = ba::RbcBackend::kEc;
    sim.add_process(
        std::make_unique<ba::Bracha>(bc, i % 2 ? ba::kOne : ba::kZero));
  }
  sim.start();
  sim.run_until([&] {
    for (crypto::ProcessId i = 0; i < n; ++i)
      if (!dynamic_cast<ba::BaProcess&>(sim.process(i)).decided())
        return false;
    return true;
  });
  EXPECT_GT(auditor->audited(), 50u);
  EXPECT_TRUE(auditor->mismatches().empty()) << auditor->mismatches().front();
  EXPECT_TRUE(auditor->unknown_kinds().empty())
      << *auditor->unknown_kinds().begin();
}

}  // namespace
}  // namespace coincidence
