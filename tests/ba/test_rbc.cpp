#include "ba/rbc.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "common/ser.h"
#include "crypto/sha256.h"
#include "sim/simulation.h"

namespace coincidence::ba {
namespace {

class RbcHost final : public sim::Process {
 public:
  RbcHost(ReliableBroadcast::Config cfg, std::optional<Bytes> to_send)
      : rbc_(std::move(cfg),
             [this](sim::ProcessId src, const Bytes& payload) {
               delivered[src] = payload;
             }),
        to_send_(std::move(to_send)) {}

  void on_start(sim::Context& ctx) override {
    if (to_send_) rbc_.broadcast(ctx, *to_send_);
  }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    // Broadcasts loop back to the sender: a self-addressed ready is this
    // process's own ready going out.
    if (msg.from == ctx.self() && msg.tag == sim::Tag("rbc/ready"))
      ++readies_sent;
    rbc_.handle(ctx, msg);
  }

  std::map<sim::ProcessId, Bytes> delivered;
  std::size_t readies_sent = 0;

 private:
  ReliableBroadcast rbc_;
  std::optional<Bytes> to_send_;
};

ReliableBroadcast::Config rbc_cfg(std::size_t n, std::size_t f) {
  ReliableBroadcast::Config cfg;
  cfg.tag = "rbc";
  cfg.n = n;
  cfg.f = f;
  return cfg;
}

TEST(Rbc, CorrectSourceDeliveredByAll) {
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.seed = 1;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i) {
    std::optional<Bytes> send;
    if (i == 0) send = bytes_of("hello");
    sim.add_process(std::make_unique<RbcHost>(rbc_cfg(7, 2), send));
  }
  sim.start();
  sim.run();
  for (sim::ProcessId i = 0; i < 7; ++i) {
    auto& host = dynamic_cast<RbcHost&>(sim.process(i));
    ASSERT_EQ(host.delivered.count(0), 1u) << i;
    EXPECT_EQ(host.delivered[0], bytes_of("hello"));
  }
}

TEST(Rbc, AllSourcesConcurrently) {
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.seed = 3;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<RbcHost>(
        rbc_cfg(7, 2), bytes_of("m" + std::to_string(i))));
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
        rbc_cfg(7, 2), bytes_of("m" + std::to_string(i))));
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
    sim.add_process(std::make_unique<RbcHost>(rbc_cfg(7, 2), std::nullopt));
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

TEST(Rbc, ForgedReadyQuorumCannotFakeDelivery) {
  // f Byzantine processes send <ready, src=0, "forged"> without any
  // initial/echo: 2f+1 readies are required, and only f can be forged
  // (f+1 amplification needs a correct ready, which needs an echo quorum).
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.seed = 9;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<RbcHost>(rbc_cfg(7, 2), std::nullopt));
  sim.corrupt(5, sim::FaultPlan::silent());
  sim.corrupt(6, sim::FaultPlan::silent());
  sim.start();
  // READY now carries (source, digest): forge a well-formed one for a
  // payload nobody echoed.
  const crypto::Digest d = crypto::sha256(bytes_of("forged"));
  Writer w;
  w.u32(0).blob(BytesView(d.data(), d.size()));
  for (sim::ProcessId from : {5, 6})
    for (sim::ProcessId to = 0; to < 5; ++to)
      sim.inject(from, to, "rbc/ready", w.bytes(), 5);
  sim.run();
  for (sim::ProcessId i = 0; i < 5; ++i) {
    auto& host = dynamic_cast<RbcHost&>(sim.process(i));
    EXPECT_EQ(host.delivered.count(0), 0u) << i;
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
        rbc_cfg(4, 1), i == 0 ? std::optional<Bytes>(bytes_of("x"))
                              : std::nullopt));
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
      sim_.add_process(std::make_unique<RbcHost>(rbc_cfg(4, 1), std::nullopt));
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

TEST(Rbc, RequiresN3f) {
  ReliableBroadcast::Config cfg;
  cfg.tag = "x";
  cfg.n = 6;
  cfg.f = 2;
  EXPECT_THROW(ReliableBroadcast(cfg, nullptr), PreconditionError);
}

}  // namespace
}  // namespace coincidence::ba
