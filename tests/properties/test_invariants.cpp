// In-flight protocol invariants, checked by a passive Observer while the
// protocols run — properties the paper's proofs rely on but that no
// output-level assertion would catch if silently violated.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ba/ba_whp.h"
#include "ba/value.h"
#include "coin/whp_coin.h"
#include "common/rng.h"
#include "core/env.h"
#include "sim/simulation.h"
#include "sim/trace.h"

namespace coincidence {
namespace {

/// Counts sends per (sender, tag) for correct senders.
class SendCounter final : public sim::Observer {
 public:
  void on_send(const sim::Message& msg, bool sender_correct) override {
    if (!sender_correct) return;
    // Broadcasts fan out into n point-to-point sends of one logical
    // message; count each logical broadcast once via the first recipient.
    if (msg.to == 0) ++counts_[{msg.from, msg.tag.str()}];
  }

  /// Max broadcasts by any single correct sender under one tag.
  std::size_t max_per_sender_tag() const {
    std::size_t max = 0;
    for (const auto& [key, count] : counts_) max = std::max(max, count);
    return max;
  }

  const std::map<std::pair<sim::ProcessId, std::string>, std::size_t>&
  counts() const {
    return counts_;
  }

 private:
  std::map<std::pair<sim::ProcessId, std::string>, std::size_t> counts_;
};

TEST(Invariants, ProcessReplaceability_OneBroadcastPerCommitteeRole) {
  // §6.1: "a correct process selected for a committee C broadcasts at
  // most one message in its role as a member of C". Run a full BA and
  // verify no correct process ever broadcast twice under any tag.
  core::Env env = core::Env::make_relaxed(48, 31);
  sim::SimConfig cfg;
  cfg.n = 48;
  cfg.seed = 9;
  sim::Simulation sim(cfg);
  auto counter = std::make_shared<SendCounter>();
  sim.add_observer(counter);
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
  for (const auto& [key, count] : counter->counts()) {
    const auto& [sender, tag] = key;
    // The echo wire tag multiplexes TWO committee roles — echo(0) and
    // echo(1) use distinct committees precisely so that each role still
    // broadcasts at most once (§6.1); every other tag is a single role.
    std::size_t allowed = tag.size() >= 5 &&
                          tag.compare(tag.size() - 5, 5, "/echo") == 0
                              ? 2
                              : 1;
    EXPECT_LE(count, allowed) << "process " << sender << " tag " << tag;
  }
}

TEST(Invariants, WhpCoinSendersAreExactlyCommitteeMembers) {
  core::Env env = core::Env::make_relaxed(64, 32);
  sim::SimConfig cfg;
  cfg.n = 64;
  cfg.seed = 10;
  sim::Simulation sim(cfg);
  auto counter = std::make_shared<SendCounter>();
  sim.add_observer(counter);
  for (crypto::ProcessId i = 0; i < 64; ++i) {
    coin::WhpCoin::Config ccfg{env};
    ccfg.tag = "coin";
    ccfg.round = 0;
    sim.add_process(std::make_unique<coin::CoinHost>(
        std::make_unique<coin::WhpCoin>(ccfg)));
  }
  sim.start();
  sim.run();

  for (const auto& [key, count] : counter->counts()) {
    const auto& [sender, tag] = key;
    EXPECT_EQ(count, 1u) << sender << " " << tag;
    if (tag == "coin/first")
      EXPECT_TRUE(env.sampler->sample(sender, "coin/first").sampled) << sender;
    if (tag == "coin/second")
      EXPECT_TRUE(env.sampler->sample(sender, "coin/second").sampled) << sender;
  }
}

TEST(Invariants, TraceRecorderCapturesAndFilters) {
  core::Env env = core::Env::make_relaxed(40, 33);
  sim::SimConfig cfg;
  cfg.n = 40;
  cfg.f = 1;
  cfg.seed = 11;
  sim::Simulation sim(cfg);
  auto all = std::make_shared<sim::TraceRecorder>();
  auto firsts = std::make_shared<sim::TraceRecorder>(
      sim::TraceOptions{.tag_filter = "first"});
  sim.add_observer(all);
  sim.add_observer(firsts);
  for (crypto::ProcessId i = 0; i < 40; ++i) {
    coin::WhpCoin::Config ccfg{env};
    ccfg.tag = "coin";
    ccfg.round = 0;
    sim.add_process(std::make_unique<coin::CoinHost>(
        std::make_unique<coin::WhpCoin>(ccfg)));
  }
  sim.corrupt(39, sim::FaultPlan::silent());
  sim.start();
  sim.run();

  using Kind = sim::TraceRecorder::Rec::Kind;
  EXPECT_GT(all->records().size(), firsts->records().size());
  EXPECT_GT(firsts->records().size(), 0u);
  for (const auto& r : firsts->records())
    if (r.kind == Kind::kSend || r.kind == Kind::kDeliver)
      EXPECT_NE(r.tag.find("first"), std::string::npos);
  // The corruption was recorded (by the unfiltered recorder).
  bool saw_corrupt = false;
  for (const auto& r : all->records())
    if (r.kind == Kind::kCorrupt) {
      saw_corrupt = true;
      EXPECT_EQ(r.from, 39u);
      EXPECT_EQ(r.tag, "silent");
    }
  EXPECT_TRUE(saw_corrupt);

  std::ostringstream dump_a;
  all->dump_jsonl(dump_a);
  EXPECT_FALSE(dump_a.str().empty());
}

TEST(Invariants, TraceIsIdenticalAcrossReplays) {
  auto run_once = [](std::uint64_t seed) {
    core::Env env = core::Env::make_relaxed(32, 34);
    sim::SimConfig cfg;
    cfg.n = 32;
    cfg.seed = seed;
    sim::Simulation sim(cfg);
    auto trace = std::make_shared<sim::TraceRecorder>();
    sim.add_observer(trace);
    for (crypto::ProcessId i = 0; i < 32; ++i) {
      coin::WhpCoin::Config ccfg{env};
      ccfg.tag = "coin";
      ccfg.round = 0;
      sim.add_process(std::make_unique<coin::CoinHost>(
          std::make_unique<coin::WhpCoin>(ccfg)));
    }
    sim.start();
    sim.run();
    std::ostringstream os;
    trace->dump_jsonl(os);
    return os.str();
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

}  // namespace
}  // namespace coincidence

namespace coincidence {
namespace {

TEST(Invariants, ReplaceabilityMakesAdaptiveHuntingWorthless) {
  // A LEGAL adaptive adversary corrupts every revealed committee member
  // (silencing it) the moment its message is delivered — the attack
  // process replaceability (§6.1) is designed to defeat. At n = 64 with
  // the full budget f, committee-liveness whp-failures are common for ANY
  // post-start corruption pattern (the guarantee is asymptotic), so the
  // meaningful claim is comparative: hunting revealed members decides no
  // less often than silencing the same number of arbitrary processes, and
  // agreement holds in every run either way.
  const std::size_t n = 64;
  auto run_once = [&](std::uint64_t seed, bool hunter, int& decided_runs) {
    core::Env env = core::Env::make_relaxed(n, 41);
    sim::SimConfig cfg;
    cfg.n = n;
    cfg.f = env.params.f;
    cfg.seed = seed;
    sim::Simulation sim(cfg);
    if (hunter)
      sim.set_adversary(std::make_unique<sim::CommitteeHunterAdversary>(
          "", sim::FaultPlan::silent()));
    for (crypto::ProcessId i = 0; i < n; ++i) {
      ba::BaWhp::Config bcfg{env};
      bcfg.tag = "ba";
      sim.add_process(
          std::make_unique<ba::BaWhp>(bcfg, i % 2 ? ba::kOne : ba::kZero));
    }
    sim.start();
    if (!hunter) {
      // Baseline: the same budget spent on arbitrary ids after start.
      Rng pick(seed * 131);
      while (sim.corrupted_count() < env.params.f) {
        auto id = static_cast<crypto::ProcessId>(pick.next_below(n));
        if (!sim.is_corrupted(id)) sim.corrupt(id, sim::FaultPlan::silent());
      }
    }
    sim.run_until([&] {
      for (crypto::ProcessId i = 0; i < n; ++i) {
        if (sim.is_corrupted(i)) continue;
        if (!dynamic_cast<ba::BaProcess&>(sim.process(i)).decided())
          return false;
      }
      return true;
    });

    // Agreement among decided correct processes: must hold ALWAYS.
    std::optional<int> bit;
    bool all = true;
    for (crypto::ProcessId i = 0; i < n; ++i) {
      if (sim.is_corrupted(i)) continue;
      auto& p = dynamic_cast<ba::BaProcess&>(sim.process(i));
      if (!p.decided()) {
        all = false;
        continue;
      }
      if (!bit) bit = p.decision();
      EXPECT_EQ(*bit, p.decision()) << "seed " << seed;
    }
    if (all) ++decided_runs;
    EXPECT_EQ(sim.corrupted_count(), env.params.f);
  };

  const int kRuns = 8;
  int hunter_decided = 0, random_decided = 0;
  for (int run = 0; run < kRuns; ++run) {
    run_once(100 + run, /*hunter=*/true, hunter_decided);
    run_once(100 + run, /*hunter=*/false, random_decided);
  }
  // Adaptivity must not beat blind corruption by more than noise — and
  // both modes decide in a solid majority of runs.
  EXPECT_GE(hunter_decided + 2, random_decided);
  EXPECT_GE(hunter_decided, kRuns / 2);
  EXPECT_GE(random_decided, kRuns / 2);
}

}  // namespace
}  // namespace coincidence
