// Reliable-broadcast cases that hold on both backends (ba/broadcast.h):
// each is one body taking the RbcBackend, run once per backend under that
// backend's suite name (Rbc for Bracha's, RbcEc for the coded one). A case
// that injects initials, echoes or readies builds the backend's own bytes
// through RbcWire.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ba/broadcast.h"
#include "crypto/verdict_memo.h"
#include "rbc_harness.h"
#include "sim/observer.h"
#include "sim/simulation.h"

namespace coincidence::ba {
namespace {

using testing::big_value;
using testing::RbcHost;
using testing::RbcWire;

RbcHost& host_of(sim::Simulation& sim, sim::ProcessId i) {
  return dynamic_cast<RbcHost&>(sim.process(i));
}

void correct_source_delivered_by_all(RbcBackend backend) {
  // A value long enough that every coded fragment carries real data and
  // the ragged tail exercises the zero-padding path.
  const Bytes value = big_value("ec-delivers", 611);
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.seed = 1;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i) {
    std::optional<Bytes> send;
    if (i == 0) send = value;
    sim.add_process(std::make_unique<RbcHost>(backend, 7, 2, send));
  }
  sim.start();
  sim.run();
  for (sim::ProcessId i = 0; i < 7; ++i) {
    RbcHost& host = host_of(sim, i);
    ASSERT_EQ(host.delivered.count(0), 1u) << i;
    EXPECT_EQ(host.delivered[0], value);
  }
}

TEST(Rbc, CorrectSourceDeliveredByAll) {
  correct_source_delivered_by_all(RbcBackend::kBracha);
}
TEST(RbcEc, CorrectSourceDeliveredByAll) {
  correct_source_delivered_by_all(RbcBackend::kEc);
}

/// Records the initial each process gets from a correct sender, and who
/// sends echoes and readies.
class RoleLog final : public sim::Observer {
 public:
  void on_send(const sim::Message& msg, bool sender_correct) override {
    if (!sender_correct) return;
    const std::string& tag = msg.tag.str();
    if (tag == "rbc/initial")
      initials[msg.to] = msg.payload.bytes();
    if (tag == "rbc/echo" || tag == "rbc/ready") echoers.insert(msg.from);
  }
  std::map<sim::ProcessId, Bytes> initials;
  std::set<sim::ProcessId> echoers;
};

void non_member_delivers_from_members_echoes(RbcBackend backend) {
  // n = 16, f = 3: E(9) = {0, 1, 2, 9, ..., 15}, in id order. The member
  // at position j gets initial j (coded: fragment j of m = 10); processes
  // 3..8 get none, never echo or ready, and still deliver from the
  // members' echoes and readies.
  constexpr sim::ProcessId kSource = 9;
  const Bytes value = big_value("ec-windowed", 400);
  sim::SimConfig cfg;
  cfg.n = 16;
  cfg.seed = 21;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 16; ++i) {
    std::optional<Bytes> send;
    if (i == kSource) send = value;
    sim.add_process(std::make_unique<RbcHost>(backend, 16, 3, send));
  }
  auto roles = std::make_shared<RoleLog>();
  sim.add_observer(roles);
  sim.start();
  sim.run();
  const std::vector<sim::ProcessId> members = {0,  1,  2,  9,  10,
                                               11, 12, 13, 14, 15};
  const RbcWire wire(backend, 16, 3, kSource, value);
  ASSERT_EQ(roles->initials.size(), members.size());
  for (std::size_t j = 0; j < members.size(); ++j)
    EXPECT_EQ(roles->initials[members[j]], wire.initial(j)) << j;
  EXPECT_EQ(roles->echoers,
            std::set<sim::ProcessId>(members.begin(), members.end()));
  for (sim::ProcessId i = 0; i < 16; ++i) {
    RbcHost& host = host_of(sim, i);
    ASSERT_EQ(host.delivered.count(kSource), 1u) << i;
    EXPECT_EQ(host.delivered[kSource], value);
  }
}

TEST(Rbc, NonMemberWithoutAnInitialDeliversFromMembersEchoes) {
  non_member_delivers_from_members_echoes(RbcBackend::kBracha);
}
TEST(RbcEc, NonMemberWithoutAnInitialDeliversFromMembersEchoes) {
  non_member_delivers_from_members_echoes(RbcBackend::kEc);
}

void all_f_faults_inside_one_echo_set(RbcBackend backend) {
  // n = 16, f = 3: E(0) = 0..9 (position j is process j) holds all three
  // faulty processes. The source equivocates, "a" to members 3..6 and
  // "b" to 7..9 (coded: two dispersals under two roots); faulty 0..2
  // echo both values (their own leaves) and ready both to everyone. "a"
  // gathers 4 correct + 3 faulty echoes, the > (m + f)/2 = 6.5 quorum;
  // "b" gets 3 + 3 and three readies, one short of amplification. Every
  // correct process delivers "a", non-members included.
  crypto::VerdictMemo memo;  // shared, as in a log run
  sim::SimConfig cfg;
  cfg.n = 16;
  cfg.f = 3;
  cfg.seed = 23;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 16; ++i)
    sim.add_process(
        std::make_unique<RbcHost>(backend, 16, 3, std::nullopt, &memo));
  for (sim::ProcessId i = 0; i < 3; ++i)
    sim.corrupt(i, sim::FaultPlan::silent());
  sim.start();
  const Bytes va = big_value("inside-a", 150);
  const RbcWire a(backend, 16, 3, 0, va);
  const RbcWire b(backend, 16, 3, 0, big_value("inside-b", 150));
  for (sim::ProcessId to = 3; to < 10; ++to)
    sim.inject(0, to, "rbc/initial", (to <= 6 ? a : b).initial(to), 1);
  for (sim::ProcessId from = 0; from < 3; ++from) {
    for (const RbcWire* w : {&a, &b}) {
      for (sim::ProcessId to = 3; to < 16; ++to) {
        sim.inject(from, to, "rbc/echo", w->echo(from), 2);
        sim.inject(from, to, "rbc/ready", w->ready(), 3);
      }
    }
  }
  sim.run();
  for (sim::ProcessId i = 3; i < 16; ++i) {
    RbcHost& host = host_of(sim, i);
    ASSERT_EQ(host.delivered.count(0), 1u) << i;
    EXPECT_EQ(host.delivered[0], va) << i;
  }
}

TEST(Rbc, AllFFaultsInsideOneEchoSetKeepAgreementAndTotality) {
  all_f_faults_inside_one_echo_set(RbcBackend::kBracha);
}
TEST(RbcEc, AllFFaultsInsideOneEchoSetKeepAgreementAndTotality) {
  all_f_faults_inside_one_echo_set(RbcBackend::kEc);
}

void forged_ready_quorum_cannot_fake_delivery(RbcBackend backend) {
  // f Byzantine processes send a well-formed ready for a value nobody
  // echoed: 2f+1 readies are required, and only f can be forged (f+1
  // amplification needs a correct ready, which needs an echo quorum).
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.seed = 9;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<RbcHost>(backend, 7, 2, std::nullopt));
  sim.corrupt(5, sim::FaultPlan::silent());
  sim.corrupt(6, sim::FaultPlan::silent());
  sim.start();
  const Bytes forged = RbcWire(backend, 7, 2, 0, big_value("forged", 64))
                           .ready();
  for (sim::ProcessId from : {5, 6})
    for (sim::ProcessId to = 0; to < 5; ++to)
      sim.inject(from, to, "rbc/ready", forged, 5);
  sim.run();
  for (sim::ProcessId i = 0; i < 5; ++i)
    EXPECT_EQ(host_of(sim, i).delivered.count(0), 0u) << i;
}

TEST(Rbc, ForgedReadyQuorumCannotFakeDelivery) {
  forged_ready_quorum_cannot_fake_delivery(RbcBackend::kBracha);
}
TEST(RbcEc, ForgedReadyQuorumCannotFakeDelivery) {
  forged_ready_quorum_cannot_fake_delivery(RbcBackend::kEc);
}

// Echo-set quorums: at n = 16, f = 3, E(15) = {0, ..., 8, 15}, so process
// 0 (position 0) is a member and 9..14 are not; member p ≤ 8 sits at
// position p. Process 0 is the only correct process; every other
// process's messages are scripted. An echo quorum is 7 members, 4 member
// readies amplify and 7 deliver (coded: given k = 4 fragments).
class EchoSetQuorums : public ::testing::Test {
 protected:
  static constexpr sim::ProcessId kSource = 15;

  explicit EchoSetQuorums(RbcBackend backend)
      : wire_(backend, 16, 3, kSource, value_), sim_(sim_cfg()) {
    for (sim::ProcessId i = 0; i < 16; ++i)
      sim_.add_process(
          std::make_unique<RbcHost>(backend, 16, 3, std::nullopt));
    for (sim::ProcessId i = 1; i < 16; ++i)
      sim_.corrupt(i, sim::FaultPlan::silent());
    sim_.start();
  }

  static sim::SimConfig sim_cfg() {
    sim::SimConfig cfg;
    cfg.n = 16;
    cfg.f = 15;
    cfg.seed = 25;
    return cfg;
  }

  /// The echo of the member at position `leaf`, sent by `from`: its own
  /// for a member, a replay for a non-member.
  void echo(sim::ProcessId from, std::size_t leaf) {
    sim_.inject(from, 0, "rbc/echo", wire_.echo(leaf), 1);
  }
  void ready(sim::ProcessId from) {
    sim_.inject(from, 0, "rbc/ready", wire_.ready(), 1);
  }
  RbcHost& host() { return host_of(sim_, 0); }

  void non_member_echoes_never_complete_a_quorum() {
    // Four members echo their leaves; six non-members replay members'
    // valid echoes. Ten echoers, enough for a quorum of all n, but only
    // four members.
    for (sim::ProcessId from : {1, 2, 3, 4}) echo(from, from);
    for (sim::ProcessId from = 9; from < 15; ++from) echo(from, from - 8);
    sim_.run();
    EXPECT_EQ(host().readies_sent, 0u);
    for (sim::ProcessId from : {5, 6, 7}) echo(from, from);
    sim_.run();
    EXPECT_EQ(host().readies_sent, 1u);  // the seventh member echo
  }

  void non_member_readies_neither_amplify_nor_deliver() {
    // The payload (coded: k = 4 member fragments), short of an echo
    // quorum.
    for (sim::ProcessId from : {1, 2, 3, 4}) echo(from, from);
    for (sim::ProcessId from = 9; from < 15; ++from) ready(from);
    sim_.run();
    EXPECT_EQ(host().readies_sent, 0u);
    EXPECT_EQ(host().delivered.count(kSource), 0u);
    // f member readies do not amplify; f + 1 do.
    for (sim::ProcessId from : {1, 2, 3}) ready(from);
    sim_.run();
    EXPECT_EQ(host().readies_sent, 0u);
    ready(4);
    sim_.run();
    EXPECT_EQ(host().readies_sent, 1u);
    // With this process's own ready, six of 7 do not deliver; 2f + 1 do.
    ready(5);
    sim_.run();
    EXPECT_EQ(host().delivered.count(kSource), 0u);
    ready(6);
    sim_.run();
    ASSERT_EQ(host().delivered.count(kSource), 1u);
    EXPECT_EQ(host().delivered[kSource], value_);
  }

  const Bytes value_ = big_value("ec-echo-set", 200);
  const RbcWire wire_;
  sim::Simulation sim_;
};

class RbcEchoSet : public EchoSetQuorums {
 protected:
  RbcEchoSet() : EchoSetQuorums(RbcBackend::kBracha) {}
};

class RbcEcEchoSet : public EchoSetQuorums {
 protected:
  RbcEcEchoSet() : EchoSetQuorums(RbcBackend::kEc) {}
};

TEST_F(RbcEchoSet, NonMemberEchoesNeverCompleteAQuorum) {
  non_member_echoes_never_complete_a_quorum();
}
TEST_F(RbcEcEchoSet, NonMemberEchoesNeverCompleteAQuorum) {
  non_member_echoes_never_complete_a_quorum();
}
TEST_F(RbcEchoSet, NonMemberReadiesNeitherAmplifyNorDeliver) {
  non_member_readies_neither_amplify_nor_deliver();
}
TEST_F(RbcEcEchoSet, NonMemberReadiesNeitherAmplifyNorDeliver) {
  non_member_readies_neither_amplify_nor_deliver();
}

}  // namespace
}  // namespace coincidence::ba
