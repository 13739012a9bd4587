#include "ba/rbc.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/errors.h"
#include "common/ser.h"
#include "crypto/sha256.h"
#include "rbc_harness.h"
#include "sim/simulation.h"

namespace coincidence::ba {
namespace {

using testing::RbcHost;

TEST(Rbc, AllSourcesConcurrently) {
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.seed = 3;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<RbcHost>(
        RbcBackend::kBracha, 7, 2, bytes_of("m" + std::to_string(i))));
  sim.start();
  sim.run();
  for (sim::ProcessId i = 0; i < 7; ++i) {
    auto& host = dynamic_cast<RbcHost&>(sim.process(i));
    EXPECT_EQ(host.delivered.size(), 7u);
    for (sim::ProcessId s = 0; s < 7; ++s)
      EXPECT_EQ(host.delivered[s], bytes_of("m" + std::to_string(s)));
  }
}

TEST(Rbc, SilentSourceDeliversNothingButOthersUnaffected) {
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.seed = 5;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<RbcHost>(
        RbcBackend::kBracha, 7, 2, bytes_of("m" + std::to_string(i))));
  sim.corrupt(6, sim::FaultPlan::crash());
  sim.start();
  sim.run();
  for (sim::ProcessId i = 0; i < 6; ++i) {
    auto& host = dynamic_cast<RbcHost&>(sim.process(i));
    EXPECT_EQ(host.delivered.count(6), 0u);
    for (sim::ProcessId s = 0; s < 6; ++s)
      EXPECT_EQ(host.delivered.count(s), 1u) << i << "<-" << s;
  }
}

TEST(Rbc, EquivocatingSourceNeverSplitsDelivery) {
  // Byzantine source sends initial("a") to half and initial("b") to the
  // other half: totality says nobody delivers conflicting payloads.
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 1;
  cfg.seed = 7;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(
        std::make_unique<RbcHost>(RbcBackend::kBracha, 7, 2, std::nullopt));
  sim.corrupt(0, sim::FaultPlan::silent());
  sim.start();
  for (sim::ProcessId to = 1; to < 7; ++to) {
    Bytes payload = to <= 3 ? bytes_of("a") : bytes_of("b");
    sim.inject(0, to, "rbc/initial", payload, 1);
  }
  sim.run();

  std::optional<Bytes> delivered_value;
  for (sim::ProcessId i = 1; i < 7; ++i) {
    auto& host = dynamic_cast<RbcHost&>(sim.process(i));
    auto it = host.delivered.find(0);
    if (it == host.delivered.end()) continue;
    if (!delivered_value) delivered_value = it->second;
    EXPECT_EQ(*delivered_value, it->second) << i;  // agreement on payload
  }
}

TEST(Rbc, MalformedEchoIgnored) {
  sim::SimConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 11;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 4; ++i)
    sim.add_process(std::make_unique<RbcHost>(
        RbcBackend::kBracha, 4, 1,
        i == 0 ? std::optional<Bytes>(bytes_of("x")) : std::nullopt));
  sim.corrupt(3, sim::FaultPlan::silent());
  sim.start();
  sim.inject(3, 1, "rbc/echo", bytes_of("garbage-not-codec"), 1);
  sim.inject(3, 1, "rbc/ready", Bytes{}, 1);
  sim.run();
  // Normal delivery still happens; no crash on malformed inputs.
  auto& host = dynamic_cast<RbcHost&>(sim.process(1));
  EXPECT_EQ(host.delivered.count(0), 1u);
}

// Digest reuse: process 0 is the only correct process, and every other
// process's messages are scripted. With n=4, f=1 an echo quorum is 3
// distinct echoers, a ready quorum 3, and 2 readies amplify.
class RbcDigestReuse : public ::testing::Test {
 protected:
  static constexpr sim::ProcessId kSource = 3;

  RbcDigestReuse() : sim_(sim_cfg()) {
    for (sim::ProcessId i = 0; i < 4; ++i)
      sim_.add_process(
          std::make_unique<RbcHost>(RbcBackend::kBracha, 4, 1, std::nullopt));
    for (sim::ProcessId i = 1; i < 4; ++i)
      sim_.corrupt(i, sim::FaultPlan::silent());
    sim_.start();
  }

  static sim::SimConfig sim_cfg() {
    sim::SimConfig cfg;
    cfg.n = 4;
    cfg.f = 3;
    cfg.seed = 13;
    return cfg;
  }

  void echo(sim::ProcessId from, const Bytes& payload) {
    Writer w;
    w.u32(kSource).blob(payload);
    sim_.inject(from, 0, "rbc/echo", w.bytes(), 1);
  }
  void ready(sim::ProcessId from, const Bytes& payload) {
    const crypto::Digest d = crypto::sha256(payload);
    Writer w;
    w.u32(kSource).blob(BytesView(d.data(), d.size()));
    sim_.inject(from, 0, "rbc/ready", w.bytes(), 1);
  }
  RbcHost& host() { return dynamic_cast<RbcHost&>(sim_.process(0)); }

  const Bytes held_ = bytes_of("a held payload, echoed by correct peers");
  sim::Simulation sim_;
};

TEST_F(RbcDigestReuse, FlippedByteEchoFormsItsOwnFlow) {
  // A Byzantine echoer replays the held payload with its last byte
  // flipped: same length, same prefix. Credited to the held flow it
  // would complete that flow's echo quorum (and send a ready for it);
  // as its own flow it carries its own bytes.
  Bytes flipped = held_;
  flipped.back() ^= 0x01;
  echo(1, held_);
  echo(2, held_);
  sim_.run();
  echo(3, flipped);
  sim_.run();
  EXPECT_EQ(host().readies_sent, 0u);
  EXPECT_EQ(host().delivered.count(kSource), 0u);

  // Readies for the flipped digest deliver exactly the flipped bytes.
  for (sim::ProcessId from : {1, 2, 3}) ready(from, flipped);
  sim_.run();
  EXPECT_EQ(host().readies_sent, 1u);
  ASSERT_EQ(host().delivered.count(kSource), 1u);
  EXPECT_EQ(host().delivered[kSource], flipped);
}

TEST_F(RbcDigestReuse, EchoAfterReadiesIsHashedAndAttached) {
  // Readies create the flow before any payload is seen; the first echo
  // must still be hashed, matched to that flow and supply its payload.
  for (sim::ProcessId from : {1, 2, 3}) ready(from, held_);
  sim_.run();
  EXPECT_EQ(host().readies_sent, 1u);  // f+1 amplification
  EXPECT_EQ(host().delivered.count(kSource), 0u);  // no payload yet
  echo(1, held_);
  sim_.run();
  ASSERT_EQ(host().delivered.count(kSource), 1u);
  EXPECT_EQ(host().delivered[kSource], held_);
}

TEST_F(RbcDigestReuse, DuplicateEchoCountsOnce) {
  for (int copy = 0; copy < 3; ++copy) echo(1, held_);
  sim_.run();
  EXPECT_EQ(host().readies_sent, 0u);  // one echoer, not three
  echo(2, held_);
  sim_.run();
  EXPECT_EQ(host().readies_sent, 0u);
  echo(3, held_);
  sim_.run();
  EXPECT_EQ(host().readies_sent, 1u);  // the third distinct echoer
}

TEST(EchoSet, AtNEquals3fPlus1EveryProcessIsAMemberInIdOrder) {
  const EchoSet e(7, 2);
  ASSERT_EQ(e.size(), 7u);
  for (sim::ProcessId s = 0; s < 7; ++s) {
    for (sim::ProcessId p = 0; p < 7; ++p) {
      EXPECT_TRUE(e.contains(s, p)) << s << "," << p;
      EXPECT_EQ(e.index(s, p), p);
      EXPECT_EQ(e.member(s, p), p);
    }
  }
}

TEST(EchoSet, WindowStartsAtTheSourceAndWrapsInIdOrder) {
  // n = 16, f = 3: m = 10, and E(9) is 9..15 plus the wrapped 0..2.
  const EchoSet e(16, 3);
  ASSERT_EQ(e.size(), 10u);
  std::vector<sim::ProcessId> members;
  for (std::size_t j = 0; j < e.size(); ++j) members.push_back(e.member(9, j));
  EXPECT_EQ(members, (std::vector<sim::ProcessId>{0, 1, 2, 9, 10, 11, 12, 13,
                                                  14, 15}));
  for (std::size_t j = 0; j < e.size(); ++j) {
    EXPECT_TRUE(e.contains(9, members[j]));
    EXPECT_EQ(e.index(9, members[j]), j);
  }
  for (sim::ProcessId p = 3; p < 9; ++p) EXPECT_FALSE(e.contains(9, p)) << p;
  EXPECT_FALSE(e.contains(9, 16));  // out of range is never a member
  // An echo quorum is > (m + f)/2 = 6.5 members.
  EXPECT_FALSE(e.echo_quorum(6));
  EXPECT_TRUE(e.echo_quorum(7));
}

TEST(Rbc, RequiresN3f) {
  ReliableBroadcast::Config cfg;
  cfg.tag = "x";
  cfg.n = 6;
  cfg.f = 2;
  EXPECT_THROW(ReliableBroadcast(cfg, nullptr), PreconditionError);
}

}  // namespace
}  // namespace coincidence::ba
