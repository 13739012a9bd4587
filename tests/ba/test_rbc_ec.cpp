// Erasure-coded reliable broadcast (ba/rbc_ec.h): delivery semantics
// must match Bracha's RBC — deliver-once per source, agreement on the
// payload, totality — while the wire carries fragments and hashes
// instead of n² copies of the value. The Byzantine cases target the two
// attacks the coding layer introduces: root equivocation (two trees for
// one source) and inconsistent dispersal (one tree over fragments that
// are not a codeword, caught by the decode → re-encode check). The
// memo cases share one crypto::VerdictMemo between receivers, as a log
// run does, and check that an honest verdict in it never vouches for a
// Byzantine variant of the same echo or dispersal.
#include "ba/rbc_ec.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/errors.h"
#include "common/ser.h"
#include "crypto/merkle.h"
#include "crypto/reed_solomon.h"
#include "crypto/verdict_memo.h"
#include "sim/observer.h"
#include "sim/simulation.h"

namespace coincidence::ba {
namespace {

class EcHost final : public sim::Process {
 public:
  EcHost(Broadcast::Config cfg, std::optional<Bytes> to_send)
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
  EcBroadcast rbc_;
  std::optional<Bytes> to_send_;
};

Broadcast::Config ec_cfg(std::size_t n, std::size_t f,
                         crypto::VerdictMemo* memo = nullptr) {
  Broadcast::Config cfg;
  cfg.tag = "rbc";
  cfg.n = n;
  cfg.f = f;
  cfg.memo = memo;
  return cfg;
}

Bytes big_value(const std::string& seed, std::size_t size) {
  Bytes v;
  v.reserve(size);
  while (v.size() < size) {
    for (char c : seed) {
      if (v.size() == size) break;
      v.push_back(static_cast<std::uint8_t>(
          c ^ static_cast<char>(v.size() & 0x7f)));
    }
  }
  return v;
}

Bytes branch_bytes(const crypto::MerkleTree& tree, std::size_t index) {
  Bytes out;
  for (const crypto::Digest& d : tree.branch(index))
    out.insert(out.end(), d.begin(), d.end());
  return out;
}

/// Wire-format initial for leaf `index` of `tree`: what a (possibly
/// dishonest) source would send that process.
Bytes initial_wire(std::uint64_t value_size, const Bytes& fragment,
                   const crypto::MerkleTree& tree, std::size_t index) {
  Writer w;
  w.u64(value_size).blob(fragment).blob(branch_bytes(tree, index));
  return w.take();
}

/// Wire-format echo for `source`'s dispersal: what an echoer sends after
/// a valid initial, or a forgery built from parts of one.
Bytes echo_wire(sim::ProcessId source, std::uint64_t value_size,
                const crypto::Digest& root, const Bytes& fragment,
                const Bytes& branch) {
  Writer w;
  w.u32(source).u64(value_size);
  w.blob(BytesView(root.data(), root.size())).blob(fragment).blob(branch);
  return w.take();
}

/// Counts the echoes correct processes send.
class EchoCounter final : public sim::Observer {
 public:
  void on_send(const sim::Message& msg, bool sender_correct) override {
    if (sender_correct && msg.tag.str() == "rbc/echo") ++echoes;
  }
  std::size_t echoes = 0;
};

TEST(RbcEc, CorrectSourceDeliveredByAll) {
  // A value long enough that every fragment carries real data and the
  // ragged tail exercises the zero-padding path.
  const Bytes value = big_value("ec-delivers", 611);
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.seed = 1;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i) {
    std::optional<Bytes> send;
    if (i == 0) send = value;
    sim.add_process(std::make_unique<EcHost>(ec_cfg(7, 2), send));
  }
  sim.start();
  sim.run();
  for (sim::ProcessId i = 0; i < 7; ++i) {
    auto& host = dynamic_cast<EcHost&>(sim.process(i));
    ASSERT_EQ(host.delivered.count(0), 1u) << i;
    EXPECT_EQ(host.delivered[0], value);
  }
}

TEST(RbcEc, AllSourcesConcurrentlyIncludingEmpty) {
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.seed = 3;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<EcHost>(
        ec_cfg(7, 2),
        i == 3 ? Bytes{} : big_value("m" + std::to_string(i), 64 + i)));
  sim.start();
  sim.run();
  for (sim::ProcessId i = 0; i < 7; ++i) {
    auto& host = dynamic_cast<EcHost&>(sim.process(i));
    ASSERT_EQ(host.delivered.size(), 7u) << i;
    EXPECT_EQ(host.delivered[3], Bytes{});
    for (sim::ProcessId s = 0; s < 7; ++s)
      if (s != 3)
        EXPECT_EQ(host.delivered[s], big_value("m" + std::to_string(s), 64 + s));
  }
}

TEST(RbcEc, UninitialedProcessesStillDeliverFromEchoes) {
  // The source omits two processes entirely (selective fault): they
  // never see an initial or their own fragment, yet reconstruct the
  // value from the other processes' echoed fragments — the dispersal
  // property Bracha's RBC gets trivially by shipping full payloads.
  const Bytes value = big_value("reconstruct-me", 300);
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 1;
  cfg.seed = 5;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i) {
    std::optional<Bytes> send;
    if (i == 0) send = value;
    sim.add_process(std::make_unique<EcHost>(ec_cfg(7, 2), send));
  }
  sim.corrupt(0, sim::FaultPlan::selective({0, 1, 2, 3, 4}));
  sim.start();
  sim.run();
  for (sim::ProcessId i : {5, 6}) {
    auto& host = dynamic_cast<EcHost&>(sim.process(i));
    ASSERT_EQ(host.delivered.count(0), 1u) << i;
    EXPECT_EQ(host.delivered[0], value);
  }
}

TEST(RbcEc, RootEquivocatingSourceNeverSplitsDelivery) {
  // The source builds two honest dispersals (different values, different
  // roots) and sends half the processes fragments of each. Echo-once-
  // per-source caps either root's echo count below a double quorum: at
  // most one value can ever be delivered, by anyone.
  crypto::VerdictMemo memo;  // shared, as in a log run
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 1;
  cfg.seed = 7;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(
        std::make_unique<EcHost>(ec_cfg(7, 2, &memo), std::nullopt));
  sim.corrupt(0, sim::FaultPlan::silent());
  sim.start();

  crypto::ReedSolomon rs(7, 3);
  const Bytes va = big_value("equivocation-a", 120);
  const Bytes vb = big_value("equivocation-b", 120);
  const auto fa = rs.encode(va);
  const auto fb = rs.encode(vb);
  const crypto::MerkleTree ta(fa);
  const crypto::MerkleTree tb(fb);
  for (sim::ProcessId to = 1; to < 7; ++to) {
    const bool a_side = to <= 3;
    const auto& frags = a_side ? fa : fb;
    const auto& tree = a_side ? ta : tb;
    sim.inject(0, to, "rbc/initial",
               initial_wire(120, frags[to], tree, to), 1);
  }
  sim.run();

  std::optional<Bytes> delivered_value;
  for (sim::ProcessId i = 1; i < 7; ++i) {
    auto& host = dynamic_cast<EcHost&>(sim.process(i));
    auto it = host.delivered.find(0);
    if (it == host.delivered.end()) continue;
    if (!delivered_value) delivered_value = it->second;
    EXPECT_EQ(*delivered_value, it->second) << i;
  }
}

TEST(RbcEc, InconsistentDispersalPoisonedNobodyDelivers) {
  // One Merkle tree over fragments that are NOT a Reed–Solomon codeword
  // (a corrupted parity leaf): every branch verifies, echoes and readies
  // reach quorum, but the decode → re-encode check fails identically at
  // every correct process — deliver nothing, crash nothing.
  crypto::VerdictMemo memo;  // shared, as in a log run
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 1;
  cfg.seed = 9;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(
        std::make_unique<EcHost>(ec_cfg(7, 2, &memo), std::nullopt));
  sim.corrupt(0, sim::FaultPlan::silent());
  sim.start();

  crypto::ReedSolomon rs(7, 3);
  auto frags = rs.encode(big_value("inconsistent", 200));
  frags[5][3] ^= 0x77;  // off-codeword, committed as-is
  const crypto::MerkleTree tree(frags);
  for (sim::ProcessId to = 1; to < 7; ++to)
    sim.inject(0, to, "rbc/initial", initial_wire(200, frags[to], tree, to),
               1);
  sim.run();
  for (sim::ProcessId i = 1; i < 7; ++i) {
    auto& host = dynamic_cast<EcHost&>(sim.process(i));
    EXPECT_EQ(host.delivered.count(0), 0u) << i;
  }
  // The poisoned flow is accounted, never invisible.
  EXPECT_GT(sim.metrics().counters()[sim::Counter::kRbcDecodeFailures], 0u);
}

TEST(RbcEc, SizeEquivocationUnderOneRootRejected) {
  // Same tree, two claimed value sizes. The size is bound into the
  // ready-quorum key H(root ‖ |v|), and fragment lengths are validated
  // against ⌈|v|/k⌉ — the wrong-size flow never verifies, so agreement
  // cannot split on length.
  crypto::VerdictMemo memo;  // shared, as in a log run
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 1;
  cfg.seed = 11;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(
        std::make_unique<EcHost>(ec_cfg(7, 2, &memo), std::nullopt));
  sim.corrupt(0, sim::FaultPlan::silent());
  sim.start();

  crypto::ReedSolomon rs(7, 3);
  const Bytes value = big_value("size-equivocation", 150);
  const auto frags = rs.encode(value);
  const crypto::MerkleTree tree(frags);
  for (sim::ProcessId to = 1; to < 7; ++to) {
    // Half get the true size, half a truncated claim over the same tree.
    const std::uint64_t claimed = to <= 3 ? 150 : 100;
    sim.inject(0, to, "rbc/initial",
               initial_wire(claimed, frags[to], tree, to), 1);
  }
  sim.run();

  for (sim::ProcessId i = 1; i < 7; ++i) {
    auto& host = dynamic_cast<EcHost&>(sim.process(i));
    auto it = host.delivered.find(0);
    if (it != host.delivered.end())
      EXPECT_EQ(it->second, value) << i;  // only the true size can win
  }
}

TEST(RbcEc, SurvivesCrashRecoverChurn) {
  // Two processes crash mid-dissemination and restart with amnesia
  // (kCrashRecover): the remaining five — exactly the echo quorum, and
  // the ready quorum, at n=7, f=2, where every process is in the echo
  // set — must still complete delivery of a correct broadcast.
  const Bytes value = big_value("churn-survivor", 256);
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.seed = 13;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i) {
    std::optional<Bytes> send;
    if (i == 0) send = value;
    sim.add_process(std::make_unique<EcHost>(ec_cfg(7, 2), send));
  }
  sim.corrupt(5, sim::FaultPlan::crash_recover(40));
  sim.corrupt(6, sim::FaultPlan::crash_recover(60));
  sim.start();
  sim.run();
  for (sim::ProcessId i = 0; i < 5; ++i) {
    auto& host = dynamic_cast<EcHost&>(sim.process(i));
    ASSERT_EQ(host.delivered.count(0), 1u) << i;
    EXPECT_EQ(host.delivered[0], value);
  }
}

TEST(RbcEc, MalformedMessagesIgnored) {
  sim::SimConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 15;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 4; ++i)
    sim.add_process(std::make_unique<EcHost>(
        ec_cfg(4, 1),
        i == 0 ? std::optional<Bytes>(big_value("x", 40)) : std::nullopt));
  sim.corrupt(3, sim::FaultPlan::silent());
  sim.start();
  sim.inject(3, 1, "rbc/initial", bytes_of("garbage-not-codec"), 1);
  sim.inject(3, 1, "rbc/echo", bytes_of("still-garbage"), 1);
  sim.inject(3, 1, "rbc/ready", Bytes{}, 1);
  // Well-formed ready for a flow nobody echoed: tallied, never quorate.
  Writer w;
  w.u32(0).blob(Bytes(32, 0xab));
  sim.inject(3, 1, "rbc/ready", w.bytes(), 5);
  sim.run();
  auto& host = dynamic_cast<EcHost&>(sim.process(1));
  ASSERT_EQ(host.delivered.count(0), 1u);
  EXPECT_EQ(host.delivered[0], big_value("x", 40));
}

TEST(RbcEc, WrappedValueSizeNeverCrashes) {
  // |v| = 2^64 − 1 made ⌈|v|/k⌉ wrap to 0 when computed as
  // (|v| + k − 1) / k: empty fragments under a valid tree of n empty
  // leaves then passed every check, were echoed, and the decode sized a
  // 2^64 − 1 byte buffer, which threw out of every correct process.
  // Such a size must be dropped on arrival: no echo, no delivery.
  crypto::VerdictMemo memo;
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 1;
  cfg.seed = 17;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(
        std::make_unique<EcHost>(ec_cfg(7, 2, &memo), std::nullopt));
  auto echoes = std::make_shared<EchoCounter>();
  sim.add_observer(echoes);
  sim.corrupt(0, sim::FaultPlan::silent());
  sim.start();

  constexpr std::uint64_t kHuge = std::numeric_limits<std::uint64_t>::max();
  const crypto::MerkleTree tree(std::vector<Bytes>(7));
  for (sim::ProcessId to = 1; to < 7; ++to) {
    sim.inject(0, to, "rbc/initial", initial_wire(kHuge, Bytes{}, tree, to),
               1);
    // The source also echoes its own empty leaf and readies the flow.
    sim.inject(0, to, "rbc/echo",
               echo_wire(0, kHuge, tree.root(), Bytes{}, branch_bytes(tree, 0)),
               1);
  }
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(echoes->echoes, 0u);
  for (sim::ProcessId i = 1; i < 7; ++i) {
    auto& host = dynamic_cast<EcHost&>(sim.process(i));
    EXPECT_TRUE(host.delivered.empty()) << i;
  }
}

TEST(RbcEc, SharedMemoRunDeliversWithOneReencodePerSource) {
  // Every process shares one memo, as the processes of a log run do: all
  // still deliver, and the consistency check re-encodes each source's
  // value once instead of once per receiver.
  crypto::VerdictMemo memo;
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.seed = 19;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<EcHost>(
        ec_cfg(7, 2, &memo), big_value("m" + std::to_string(i), 100 + i)));
  sim.start();
  sim.run();
  for (sim::ProcessId i = 0; i < 7; ++i) {
    auto& host = dynamic_cast<EcHost&>(sim.process(i));
    ASSERT_EQ(host.delivered.size(), 7u) << i;
    for (sim::ProcessId s = 0; s < 7; ++s)
      EXPECT_EQ(host.delivered[s], big_value("m" + std::to_string(s), 100 + s));
  }
  const auto& c = sim.metrics().counters();
  EXPECT_EQ(c[sim::Counter::kRbcDecodes], 49u);
  // 7 source encodes + 7 re-encodes, against 7 + 49 without the memo.
  EXPECT_EQ(c[sim::Counter::kRbcEncodes], 14u);
  EXPECT_GT(memo.hits(), 0u);
}

/// Records which processes correct senders address initials to (with the
/// fragment each carries), and who sends echoes and readies.
class RoleLog final : public sim::Observer {
 public:
  void on_send(const sim::Message& msg, bool sender_correct) override {
    if (!sender_correct) return;
    const std::string& tag = msg.tag.str();
    if (tag == "rbc/initial") {
      Reader r(msg.payload);
      r.u64();
      const BytesView fragment = r.blob_view();
      initial_fragments[msg.to] = Bytes(fragment.begin(), fragment.end());
    }
    if (tag == "rbc/echo" || tag == "rbc/ready") echoers.insert(msg.from);
  }
  std::map<sim::ProcessId, Bytes> initial_fragments;
  std::set<sim::ProcessId> echoers;
};

TEST(RbcEc, NonMemberWithoutAnInitialDeliversFromMembersEchoes) {
  // n = 16, f = 3: E(9) = {0, 1, 2, 9, ..., 15}, in id order. The source
  // codes m = 10 fragments and sends the member at position j fragment
  // j; processes 3..8 get none, never echo or ready, and still decode
  // from the members' echoed fragments.
  constexpr sim::ProcessId kSource = 9;
  const Bytes value = big_value("ec-windowed", 400);
  sim::SimConfig cfg;
  cfg.n = 16;
  cfg.seed = 21;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 16; ++i) {
    std::optional<Bytes> send;
    if (i == kSource) send = value;
    sim.add_process(std::make_unique<EcHost>(ec_cfg(16, 3), send));
  }
  auto roles = std::make_shared<RoleLog>();
  sim.add_observer(roles);
  sim.start();
  sim.run();
  const std::vector<sim::ProcessId> members = {0,  1,  2,  9,  10,
                                               11, 12, 13, 14, 15};
  const auto frags = crypto::ReedSolomon(10, 4).encode(value);
  ASSERT_EQ(roles->initial_fragments.size(), members.size());
  for (std::size_t j = 0; j < members.size(); ++j)
    EXPECT_EQ(roles->initial_fragments[members[j]], frags[j]) << j;
  EXPECT_EQ(roles->echoers,
            std::set<sim::ProcessId>(members.begin(), members.end()));
  for (sim::ProcessId i = 0; i < 16; ++i) {
    auto& host = dynamic_cast<EcHost&>(sim.process(i));
    ASSERT_EQ(host.delivered.count(kSource), 1u) << i;
    EXPECT_EQ(host.delivered[kSource], value);
  }
}

/// One dispersal as a source with a 3f + 1 echo set codes it at n = 16,
/// f = 3: m = 10 fragments, k = 4, an m-leaf tree.
struct WindowDispersal {
  static constexpr std::size_t kM = 10;

  WindowDispersal(sim::ProcessId source, const Bytes& value)
      : source(source),
        size(value.size()),
        frags(crypto::ReedSolomon(kM, 4).encode(value)),
        tree(frags) {}

  /// The echo of the member at position j.
  Bytes echo(std::size_t j) const {
    return echo_wire(source, size, tree.root(), frags[j],
                     branch_bytes(tree, j));
  }
  Bytes initial(std::size_t j) const {
    return initial_wire(size, frags[j], tree, j);
  }
  Bytes ready() const {
    Writer w;
    w.u32(source).blob(crypto::sha256(
        concat({BytesView(tree.root()), bytes_of_u64(size)})));
    return w.take();
  }

  sim::ProcessId source;
  std::uint64_t size;
  std::vector<Bytes> frags;
  crypto::MerkleTree tree;
};

TEST(RbcEc, AllFFaultsInsideOneEchoSetKeepAgreementAndTotality) {
  // n = 16, f = 3: E(0) = 0..9 (position j is process j) holds all three
  // faulty processes. The source disperses two values under two roots,
  // "a" to members 3..6 and "b" to 7..9; faulty 0..2 echo their own
  // leaves of both trees and ready both. Root a gathers 4 correct + 3
  // faulty echoes, the > (m + f)/2 = 6.5 quorum, and 7 fragments; root b
  // 3 + 3 and three readies, one short of amplification. Every correct
  // process delivers "a", non-members included.
  crypto::VerdictMemo memo;  // shared, as in a log run
  sim::SimConfig cfg;
  cfg.n = 16;
  cfg.f = 3;
  cfg.seed = 23;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 16; ++i)
    sim.add_process(
        std::make_unique<EcHost>(ec_cfg(16, 3, &memo), std::nullopt));
  for (sim::ProcessId i = 0; i < 3; ++i)
    sim.corrupt(i, sim::FaultPlan::silent());
  sim.start();
  const Bytes va = big_value("inside-a", 150);
  const WindowDispersal a(0, va);
  const WindowDispersal b(0, big_value("inside-b", 150));
  for (sim::ProcessId to = 3; to < 10; ++to)
    sim.inject(0, to, "rbc/initial", (to <= 6 ? a : b).initial(to), 1);
  for (sim::ProcessId from = 0; from < 3; ++from) {
    for (const WindowDispersal* d : {&a, &b}) {
      for (sim::ProcessId to = 3; to < 16; ++to) {
        sim.inject(from, to, "rbc/echo", d->echo(from), 2);
        sim.inject(from, to, "rbc/ready", d->ready(), 3);
      }
    }
  }
  sim.run();
  for (sim::ProcessId i = 3; i < 16; ++i) {
    auto& host = dynamic_cast<EcHost&>(sim.process(i));
    ASSERT_EQ(host.delivered.count(0), 1u) << i;
    EXPECT_EQ(host.delivered[0], va) << i;
  }
}

// Echo-set quorums on the coded backend: at n = 16, f = 3, E(15) =
// {0, ..., 8, 15}, so process 0 (position 0) is a member and 9..14 are
// not. Process 0 is the only correct process; every other process's
// messages are scripted. An echo quorum is 7 members, 4 member readies
// amplify and 7 deliver, given k = 4 fragments.
class RbcEcEchoSet : public ::testing::Test {
 protected:
  static constexpr sim::ProcessId kSource = 15;

  RbcEcEchoSet() : sim_(sim_cfg()) {
    for (sim::ProcessId i = 0; i < 16; ++i)
      sim_.add_process(std::make_unique<EcHost>(ec_cfg(16, 3), std::nullopt));
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

  /// Member p's echo of its own leaf (position p for p ≤ 8), or, from a
  /// non-member, a replay of member `leaf`'s echo.
  void echo(sim::ProcessId from, std::size_t leaf) {
    sim_.inject(from, 0, "rbc/echo", dispersal_.echo(leaf), 1);
  }
  void ready(sim::ProcessId from) {
    sim_.inject(from, 0, "rbc/ready", dispersal_.ready(), 1);
  }
  EcHost& host() { return dynamic_cast<EcHost&>(sim_.process(0)); }

  const Bytes value_ = big_value("ec-echo-set", 200);
  const WindowDispersal dispersal_{kSource, value_};
  sim::Simulation sim_;
};

TEST_F(RbcEcEchoSet, NonMemberEchoesNeverCompleteAQuorum) {
  // Four members echo their leaves; six non-members replay members'
  // valid echoes. Ten echoers, but only four members.
  for (sim::ProcessId from : {1, 2, 3, 4}) echo(from, from);
  for (sim::ProcessId from = 9; from < 15; ++from) echo(from, from - 8);
  sim_.run();
  EXPECT_EQ(host().readies_sent, 0u);
  for (sim::ProcessId from : {5, 6, 7}) echo(from, from);
  sim_.run();
  EXPECT_EQ(host().readies_sent, 1u);  // the seventh member echo
}

TEST_F(RbcEcEchoSet, NonMemberReadiesNeitherAmplifyNorDeliver) {
  // k = 4 member fragments, short of an echo quorum.
  for (sim::ProcessId from : {1, 2, 3, 4}) echo(from, from);
  for (sim::ProcessId from = 9; from < 15; ++from) ready(from);
  sim_.run();
  EXPECT_EQ(host().readies_sent, 0u);
  EXPECT_EQ(host().delivered.count(kSource), 0u);
  // f + 1 member readies amplify; with this process's own, five of 7.
  for (sim::ProcessId from : {1, 2, 3, 4}) ready(from);
  sim_.run();
  EXPECT_EQ(host().readies_sent, 1u);
  EXPECT_EQ(host().delivered.count(kSource), 0u);
  for (sim::ProcessId from : {5, 6}) ready(from);
  sim_.run();
  ASSERT_EQ(host().delivered.count(kSource), 1u);
  EXPECT_EQ(host().delivered[kSource], value_);
}

/// A harness Context for driving an EcBroadcast by hand: records the tags
/// it sends and the counters it bumps.
class Recorder final : public sim::Context {
 public:
  Recorder(sim::ProcessId self, std::size_t n) : self_(self), n_(n) {}

  sim::ProcessId self() const override { return self_; }
  std::size_t n() const override { return n_; }
  void send(sim::ProcessId, sim::Tag tag, SharedBytes, std::size_t) override {
    sent.push_back(tag.str());
  }
  void broadcast(sim::Tag tag, SharedBytes, std::size_t) override {
    sent.push_back(tag.str());
  }
  Rng& rng() override { return rng_; }
  std::uint64_t causal_depth() const override { return 0; }
  void count(sim::Counter c, std::uint64_t k) override { counters[c] += k; }

  bool sent_ready() const {
    return std::find(sent.begin(), sent.end(), "rbc/ready") != sent.end();
  }

  std::vector<std::string> sent;
  std::map<sim::Counter, std::uint64_t> counters;

 private:
  sim::ProcessId self_;
  std::size_t n_;
  Rng rng_{1};
};

/// n = 4, f = 1: k = 2 fragments decode, 3 echoes make the quorum.
class RbcEcMemo : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 4;
  static constexpr std::size_t kF = 1;

  struct Receiver {
    Receiver(sim::ProcessId self, crypto::VerdictMemo* memo)
        : ctx(self, kN),
          rbc(ec_cfg(kN, kF, memo),
              [this](sim::ProcessId src, const Bytes& payload) {
                delivered[src] = payload;
              }) {}
    Recorder ctx;
    EcBroadcast rbc;
    std::map<sim::ProcessId, Bytes> delivered;
  };

  /// Source 0's dispersal of `value`, optionally committing a corrupted
  /// fragment (an off-codeword leaf) to the tree.
  struct Dispersal {
    explicit Dispersal(const Bytes& value,
                       std::optional<std::size_t> corrupt = std::nullopt)
        : size(value.size()), frags(encode(value, corrupt)), tree(frags) {}

    static std::vector<Bytes> encode(const Bytes& value,
                                     std::optional<std::size_t> corrupt) {
      auto frags = crypto::ReedSolomon(kN, kF + 1).encode(value);
      if (corrupt) frags[*corrupt][0] ^= 0x77;
      return frags;
    }

    Bytes echo(std::size_t index) const {
      return echo_wire(0, size, tree.root(), frags[index],
                       branch_bytes(tree, index));
    }
    Bytes ready() const {
      Writer w;
      w.u32(0).blob(crypto::sha256(
          concat({BytesView(tree.root()), bytes_of_u64(size)})));
      return w.take();
    }

    std::uint64_t size;
    std::vector<Bytes> frags;
    crypto::MerkleTree tree;
  };

  std::unique_ptr<Receiver> receiver(sim::ProcessId self) {
    return std::make_unique<Receiver>(self, &memo_);
  }

  static void feed(Receiver& r, sim::ProcessId from, const char* tag,
                   Bytes payload) {
    sim::Message m;
    m.from = from;
    m.to = r.ctx.self();
    m.tag = tag;
    m.payload = std::move(payload);
    EXPECT_TRUE(r.rbc.handle(r.ctx, m));
  }

  /// Feeds `r` the honest echoes of `d` from processes 1 and 2, one short
  /// of the quorum, then `third` as sent by `sender`. True iff `r`
  /// counted it: the quorum completes and its ready goes out.
  static bool completes_quorum(Receiver& r, const Dispersal& d,
                               sim::ProcessId sender, Bytes third) {
    feed(r, 1, "rbc/echo", d.echo(1));
    feed(r, 2, "rbc/echo", d.echo(2));
    EXPECT_FALSE(r.ctx.sent_ready());
    feed(r, sender, "rbc/echo", std::move(third));
    return r.ctx.sent_ready();
  }

  /// Puts the honest verdict for process 3's echo of `d` in the memo, the
  /// way any other receiver of that echo would.
  void seed_honest_verdict(const Dispersal& d) {
    auto first = receiver(1);
    feed(*first, 3, "rbc/echo", d.echo(3));
    ASSERT_EQ(memo_.size(), 1u);
  }

  crypto::VerdictMemo memo_;
  const Dispersal honest_{big_value("memo-honest", 90)};
};

TEST_F(RbcEcMemo, HonestEchoVerdictIsSharedAcrossReceivers) {
  seed_honest_verdict(honest_);
  auto r = receiver(2);
  const std::uint64_t hits = memo_.hits();
  EXPECT_TRUE(completes_quorum(*r, honest_, 3, honest_.echo(3)));
  EXPECT_EQ(memo_.hits(), hits + 1);
}

TEST_F(RbcEcMemo, FlippedFragmentByteMissesTheHonestVerdict) {
  seed_honest_verdict(honest_);
  Bytes fragment = honest_.frags[3];
  fragment[0] ^= 0x01;
  auto r = receiver(2);
  EXPECT_FALSE(completes_quorum(
      *r, honest_, 3,
      echo_wire(0, honest_.size, honest_.tree.root(), fragment,
                branch_bytes(honest_.tree, 3))));
}

TEST_F(RbcEcMemo, FlippedBranchByteMissesTheHonestVerdict) {
  seed_honest_verdict(honest_);
  Bytes branch = branch_bytes(honest_.tree, 3);
  branch[5] ^= 0x01;
  auto r = receiver(2);
  EXPECT_FALSE(completes_quorum(
      *r, honest_, 3,
      echo_wire(0, honest_.size, honest_.tree.root(), honest_.frags[3],
                branch)));
}

TEST_F(RbcEcMemo, HonestBytesUnderAnotherSenderAreRejected) {
  // Process 3's honest echo replayed by process 0: the branch places the
  // fragment at leaf 3, not at the sender's leaf 0.
  seed_honest_verdict(honest_);
  auto r = receiver(2);
  EXPECT_FALSE(completes_quorum(*r, honest_, 0, honest_.echo(3)));
}

TEST_F(RbcEcMemo, RootEquivocationCannotBorrowTheHonestVerdict) {
  // The source disperses a second value under another root. Process 3's
  // honest fragment and branch for the first root, relabelled with the
  // second root, must not count toward the second flow.
  seed_honest_verdict(honest_);
  const Dispersal other(big_value("memo-equivocation", 90));
  ASSERT_NE(other.tree.root(), honest_.tree.root());
  auto r = receiver(2);
  EXPECT_FALSE(completes_quorum(
      *r, other, 3,
      echo_wire(0, other.size, other.tree.root(), honest_.frags[3],
                branch_bytes(honest_.tree, 3))));
  // The second root's own echo from 3 still completes its quorum.
  auto control = receiver(2);
  EXPECT_TRUE(completes_quorum(*control, other, 3, other.echo(3)));
}

TEST_F(RbcEcMemo, InconsistentDispersalVerdictComesFromTheMemo) {
  // One tree over a corrupted parity leaf. Every receiver decodes the
  // same value from leaves {0, 1}, and its re-encode misses the root: the
  // first receiver computes that verdict, the others read it from the
  // memo, and all of them poison the flow.
  const Dispersal bad(big_value("memo-inconsistent", 90), /*corrupt=*/3);
  for (sim::ProcessId self = 1; self < kN; ++self) {
    auto r = receiver(self);
    for (sim::ProcessId from = 0; from < 3; ++from)
      feed(*r, from, "rbc/echo", bad.echo(from));
    for (sim::ProcessId from = 0; from < 3; ++from)
      feed(*r, from, "rbc/ready", bad.ready());
    EXPECT_TRUE(r->delivered.empty()) << self;
    EXPECT_EQ(r->ctx.counters[sim::Counter::kRbcDecodes], 1u) << self;
    EXPECT_EQ(r->ctx.counters[sim::Counter::kRbcDecodeFailures], 1u) << self;
    EXPECT_EQ(r->ctx.counters[sim::Counter::kRbcEncodes], self == 1 ? 1u : 0u)
        << self;
  }
}

TEST(RbcEc, ConstructorEnforcesLimits) {
  EXPECT_THROW(EcBroadcast(ec_cfg(6, 2), nullptr), PreconditionError);
  // The GF(2^8) field caps the code at 255 fragments, one per echo-set
  // member: 3f + 1 ≤ 255, whatever n is.
  EXPECT_NO_THROW(EcBroadcast(ec_cfg(300, 84), nullptr));  // m = 253
  EXPECT_THROW(EcBroadcast(ec_cfg(300, 85), nullptr), PreconditionError);
}

TEST(RbcEc, DeliversPastTheFieldCapOnN) {
  // n = 300 > 255, f = 20: a 61-fragment code, delivered everywhere.
  const Bytes value = big_value("three-hundred", 500);
  sim::SimConfig cfg;
  cfg.n = 300;
  cfg.seed = 27;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 300; ++i) {
    std::optional<Bytes> send;
    if (i == 290) send = value;  // E(290) wraps past n − 1
    sim.add_process(std::make_unique<EcHost>(ec_cfg(300, 20), send));
  }
  sim.start();
  sim.run();
  for (sim::ProcessId i = 0; i < 300; ++i) {
    auto& host = dynamic_cast<EcHost&>(sim.process(i));
    ASSERT_EQ(host.delivered.count(290), 1u) << i;
    EXPECT_EQ(host.delivered[290], value);
  }
}

}  // namespace
}  // namespace coincidence::ba
