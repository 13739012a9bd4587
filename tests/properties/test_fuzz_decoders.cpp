// Decoder fuzzing: every protocol's message handlers are fed random
// byte-strings, random-length truncations of honest payloads, and
// bit-flipped honest payloads at every tag the protocol listens on.
// Invariants: no crash, no exception escaping the handler, and the
// protocol still completes correctly afterwards (Byzantine garbage is
// dropped, never wedges a correct process).
#include <gtest/gtest.h>

#include "ba/ba_whp.h"
#include "ba/ben_or.h"
#include "ba/bracha.h"
#include "ba/mmr.h"
#include "coin/dealer_coin.h"
#include "coin/shared_coin.h"
#include "coin/whp_coin.h"
#include "common/rng.h"
#include "common/ser.h"
#include "core/env.h"
#include "core/runner.h"
#include "net/reliable_process.h"
#include "sim/simulation.h"

namespace coincidence {
namespace {

/// Tags each protocol family listens on, relative to its run_agreement
/// instance naming.
std::vector<std::string> tags_for(core::Protocol p) {
  switch (p) {
    case core::Protocol::kBenOr:
      return {"benor/0/R", "benor/0/P", "benor/1/R", "benor/7/P"};
    case core::Protocol::kBracha:
      return {"bracha/0/1/initial", "bracha/0/1/echo", "bracha/0/1/ready",
              "bracha/0/2/echo", "bracha/1/3/ready"};
    case core::Protocol::kMmrSharedCoin:
      return {"mmr/0/bval", "mmr/0/aux", "mmr/0/coin/first",
              "mmr/0/coin/second", "mmr/1/bval"};
    case core::Protocol::kMmrWhpCoin:
      return {"mmrw/0/bval", "mmrw/0/aux", "mmrw/0/coin/first",
              "mmrw/0/coin/second"};
    case core::Protocol::kBaWhp:
      return {"ba/0/a1/init", "ba/0/a1/echo", "ba/0/a1/ok",
              "ba/0/coin/first", "ba/0/coin/second", "ba/0/a2/init",
              "ba/1/a1/init", "ba/0/a1/unknown", "not-even-a-tag"};
    case core::Protocol::kMmrDealerCoin:
      return {"rabin/0/bval", "rabin/0/aux", "rabin/0/coin/share"};
  }
  return {};
}

class FuzzGrid : public ::testing::TestWithParam<core::Protocol> {};

TEST_P(FuzzGrid, RandomPayloadsNeverWedgeTheProtocol) {
  core::Protocol protocol = GetParam();
  std::size_t n = std::max<std::size_t>(core::min_n_for(protocol),
                                        protocol == core::Protocol::kBaWhp ||
                                                protocol ==
                                                    core::Protocol::kMmrWhpCoin
                                            ? 48
                                            : 10);

  // Use the public runner to set the stage, then re-run manually with an
  // injection phase: we need direct Simulation access for inject().
  core::RunOptions probe;
  probe.protocol = protocol;
  probe.n = n;
  probe.inputs.assign(n, ba::kOne);

  // Build manually so we can inject mid-run.
  // (run_agreement has no injection hook by design — fuzzing is a test
  // concern, not an experiment concern.)
  core::Env env = core::Env::make_relaxed(n, 77);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = 1;
  cfg.seed = 99;
  sim::Simulation sim(cfg);

  // Reuse the runner's construction logic through a minimal local copy:
  // simplest faithful approach is to instantiate via run-options on the
  // same env... instead, fuzz through the runner-built protocols by
  // running the public API for the happy path and, separately, fuzzing a
  // directly-built BaWhp/Mmr/etc. Here: direct build.
  auto build = [&](sim::ProcessId, ba::Value input)
      -> std::unique_ptr<sim::Process> {
    switch (protocol) {
      case core::Protocol::kBenOr: {
        ba::BenOr::Config c;
        c.n = n;
        c.f = (n - 1) / 5;
        return std::make_unique<ba::BenOr>(c, input);
      }
      case core::Protocol::kBracha: {
        ba::Bracha::Config c;
        c.n = n;
        c.f = (n - 1) / 3;
        return std::make_unique<ba::Bracha>(c, input);
      }
      case core::Protocol::kMmrSharedCoin:
      case core::Protocol::kMmrDealerCoin:
      case core::Protocol::kMmrWhpCoin: {
        ba::Mmr::Config c;
        c.tag = protocol == core::Protocol::kMmrSharedCoin ? "mmr"
                : protocol == core::Protocol::kMmrWhpCoin ? "mmrw"
                                                          : "rabin";
        c.n = n;
        c.f = (n - 1) / 3;
        auto setup = std::make_shared<coin::DealerCoinSetup>(n, (n - 1) / 3,
                                                             256, 4);
        c.make_coin = [&env, n, protocol, setup](std::uint64_t round,
                                                 const std::string& tag)
            -> std::unique_ptr<coin::CoinProtocol> {
          if (protocol == core::Protocol::kMmrSharedCoin) {
            coin::SharedCoin::Config cc;
            cc.tag = tag;
            cc.round = round;
            cc.n = n;
            cc.f = (n - 1) / 3;
            cc.vrf = env.vrf;
            cc.registry = env.registry;
            cc.batcher = env.batcher;
            return std::make_unique<coin::SharedCoin>(cc);
          }
          if (protocol == core::Protocol::kMmrWhpCoin) {
            coin::WhpCoin::Config cc{env};
            cc.tag = tag;
            cc.round = round;
            return std::make_unique<coin::WhpCoin>(cc);
          }
          coin::DealerCoin::Config cc;
          cc.tag = tag;
          cc.round = round;
          cc.setup = setup;
          return std::make_unique<coin::DealerCoin>(cc);
        };
        return std::make_unique<ba::Mmr>(c, input);
      }
      case core::Protocol::kBaWhp: {
        ba::BaWhp::Config c{env};
        c.tag = "ba";
        return std::make_unique<ba::BaWhp>(c, input);
      }
    }
    return nullptr;
  };

  for (sim::ProcessId i = 0; i < n; ++i) sim.add_process(build(i, ba::kOne));
  sim::ProcessId attacker = static_cast<sim::ProcessId>(n - 1);
  sim.corrupt(attacker, sim::FaultPlan::silent());
  sim.start();

  // Fuzz barrage: random bytes of many shapes at every listened-on tag.
  Rng rng(0xF077u ^ static_cast<unsigned>(protocol));
  for (const std::string& tag : tags_for(protocol)) {
    for (int shape = 0; shape < 12; ++shape) {
      std::size_t len = rng.next_below(96);
      Bytes payload = rng.next_bytes(len);
      sim.inject(attacker, static_cast<sim::ProcessId>(rng.next_below(n - 1)),
                 tag, payload, 1);
    }
  }

  // No crash so far; the protocol must still decide 1 (validity).
  ASSERT_NO_THROW(sim.run_until([&] {
    for (sim::ProcessId i = 0; i + 1 < n; ++i)
      if (!dynamic_cast<ba::BaProcess&>(sim.process(i)).decided())
        return false;
    return true;
  }));
  std::size_t decided_one = 0, decided_total = 0;
  for (sim::ProcessId i = 0; i + 1 < n; ++i) {
    auto& p = dynamic_cast<ba::BaProcess&>(sim.process(i));
    if (p.decided()) {
      ++decided_total;
      decided_one += p.decision() == 1;
    }
  }
  EXPECT_EQ(decided_one, decided_total);        // validity survives fuzz
  EXPECT_GE(decided_total, (n - 1) * 9 / 10);   // liveness (whp allowance)
}

// The reliable channel adds two new wire formats ("net/dat", "net/ack");
// per the repo rule, new message kinds get fuzz rows. Byzantine peers can
// aim raw garbage, truncations, forged acks and well-formed frames
// wrapping garbage at the channel — none of it may crash the decoder or
// wedge the wrapped protocol.
TEST(FuzzDecoders, ReliableChannelFramesNeverWedgeTheProtocol) {
  const std::size_t n = 4;
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = 1;
  cfg.seed = 0xF0;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < n; ++i) {
    ba::Bracha::Config c;
    c.n = n;
    c.f = 1;
    sim.add_process(std::make_unique<net::ReliableProcess>(
        std::make_unique<ba::Bracha>(c, ba::kOne)));
  }
  sim::ProcessId attacker = static_cast<sim::ProcessId>(n - 1);
  sim.corrupt(attacker, sim::FaultPlan::silent());
  sim.start();

  Rng rng(0xF0F0);
  for (int shape = 0; shape < 24; ++shape) {
    sim::ProcessId victim =
        static_cast<sim::ProcessId>(rng.next_below(n - 1));
    // Raw garbage at both channel tags.
    sim.inject(attacker, victim, shape % 2 ? "net/dat" : "net/ack",
               rng.next_bytes(rng.next_below(64)), 1);
    // Forged acks for sequence numbers the victim never sent to us.
    Writer ack;
    ack.u64(rng.next_u64());
    sim.inject(attacker, victim, "net/ack", ack.take(), 1);
    // Well-formed data frames wrapping garbage: the channel must deliver
    // them (they decode fine) and the inner protocol must shrug them off.
    Writer dat;
    dat.u64(rng.next_u64())
        .str("bracha/0/1/echo")
        .u64(1)
        .blob(rng.next_bytes(rng.next_below(48)));
    sim.inject(attacker, victim, "net/dat", dat.take(), 2);
  }

  ASSERT_NO_THROW(sim.run_until([&] {
    for (sim::ProcessId i = 0; i + 1 < n; ++i) {
      auto& rp = dynamic_cast<net::ReliableProcess&>(sim.process(i));
      if (!dynamic_cast<ba::BaProcess&>(rp.inner()).decided()) return false;
    }
    return true;
  }));
  for (sim::ProcessId i = 0; i + 1 < n; ++i) {
    auto& rp = dynamic_cast<net::ReliableProcess&>(sim.process(i));
    auto& p = dynamic_cast<ba::BaProcess&>(rp.inner());
    ASSERT_TRUE(p.decided()) << i;
    EXPECT_EQ(p.decision(), 1) << i;  // validity survives the barrage
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, FuzzGrid,
    ::testing::ValuesIn(core::all_protocols()),
    [](const auto& info) {
      std::string name = core::protocol_name(info.param);
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

}  // namespace
}  // namespace coincidence
