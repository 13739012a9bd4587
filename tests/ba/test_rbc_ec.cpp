// Erasure-coded reliable broadcast (ba/rbc_ec.h): delivery semantics
// must match Bracha's RBC — deliver-once per source, agreement on the
// payload, totality — while the wire carries fragments and hashes
// instead of n² copies of the value. The Byzantine cases target the two
// attacks the coding layer introduces: root equivocation (two trees for
// one source) and inconsistent dispersal (one tree over fragments that
// are not a codeword, caught by the decode → re-encode check).
#include "ba/rbc_ec.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "common/errors.h"
#include "common/ser.h"
#include "crypto/merkle.h"
#include "crypto/reed_solomon.h"
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
    rbc_.handle(ctx, msg);
  }

  std::map<sim::ProcessId, Bytes> delivered;

 private:
  EcBroadcast rbc_;
  std::optional<Bytes> to_send_;
};

Broadcast::Config ec_cfg(std::size_t n, std::size_t f) {
  Broadcast::Config cfg;
  cfg.tag = "rbc";
  cfg.n = n;
  cfg.f = f;
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

/// Wire-format initial for leaf `index` of `tree`: what a (possibly
/// dishonest) source would send that process.
Bytes initial_wire(std::uint64_t value_size, const Bytes& fragment,
                   const crypto::MerkleTree& tree, std::size_t index) {
  Bytes branch_cat;
  for (const crypto::Digest& d : tree.branch(index))
    branch_cat.insert(branch_cat.end(), d.begin(), d.end());
  Writer w;
  w.u64(value_size).blob(fragment).blob(branch_cat);
  return w.take();
}

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
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 1;
  cfg.seed = 7;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<EcHost>(ec_cfg(7, 2), std::nullopt));
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
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 1;
  cfg.seed = 9;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<EcHost>(ec_cfg(7, 2), std::nullopt));
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
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 1;
  cfg.seed = 11;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<EcHost>(ec_cfg(7, 2), std::nullopt));
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
  // (kCrashRecover): the remaining five — exactly the echo quorum at
  // n=7, f=1 — must still complete delivery of a correct broadcast.
  const Bytes value = big_value("churn-survivor", 256);
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.seed = 13;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i) {
    std::optional<Bytes> send;
    if (i == 0) send = value;
    sim.add_process(std::make_unique<EcHost>(ec_cfg(7, 1), send));
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

TEST(RbcEc, ConstructorEnforcesLimits) {
  EXPECT_THROW(EcBroadcast(ec_cfg(6, 2), nullptr), PreconditionError);
  // GF(2^8) field cap: 256 processes cannot run the EC backend.
  EXPECT_THROW(EcBroadcast(ec_cfg(256, 5), nullptr), PreconditionError);
}

}  // namespace
}  // namespace coincidence::ba
