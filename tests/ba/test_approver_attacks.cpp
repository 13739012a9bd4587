// Adversarial-input suite for the approver: every way a Byzantine
// process can try to cheat the three-phase structure, and why each fails.
// The CertMemo cases check the run-wide <ok> certificate memo: once an
// honest certificate is cached, no byte variant of it, and no relay by a
// sender outside the ok committee, may ride on its verdict.
#include <gtest/gtest.h>

#include "ba/approver.h"
#include "coin/verify_queue.h"
#include "common/errors.h"
#include "common/ser.h"
#include "crypto/fast_vrf.h"
#include "sim/simulation.h"

namespace coincidence::ba {
namespace {

struct AttackFixture {
  explicit AttackFixture(std::size_t n, std::uint64_t key_seed = 21)
      : n(n),
        params(committee::Params::derive(n, 0.25, 0.02, /*strict=*/false)),
        registry(crypto::KeyRegistry::create_for(n, key_seed)),
        vrf(std::make_shared<crypto::FastVrf>(registry)),
        sampler(std::make_shared<committee::Sampler>(vrf, registry,
                                                     params.sample_prob())),
        signer(std::make_shared<crypto::Signer>(registry)) {}

  Approver::Config config() const {
    Approver::Config cfg;
    cfg.tag = "apv";
    cfg.params = params;
    cfg.registry = registry;
    cfg.sampler = sampler;
    cfg.signer = signer;
    return cfg;
  }

  /// config() with a fresh BatchVerifier: the deferred path, whose ok
  /// memo is shared by every approver built from this config.
  Approver::Config batched_config() const {
    Approver::Config cfg = config();
    cfg.vrf = vrf;
    cfg.batcher = std::make_shared<coin::BatchVerifier>(
        coin::BatchVerifier::Config{vrf, sampler, signer});
    return cfg;
  }

  /// Builds a sim where everyone approves `input`; the last process is
  /// corrupted silent (the attacker's identity for injections).
  std::unique_ptr<sim::Simulation> make_sim(Value input,
                                            std::uint64_t seed) const {
    sim::SimConfig cfg;
    cfg.n = n;
    cfg.f = 1;
    cfg.seed = seed;
    auto sim = std::make_unique<sim::Simulation>(cfg);
    for (std::size_t i = 0; i < n; ++i)
      sim->add_process(std::make_unique<ApproverHost>(config(), input));
    sim->corrupt(static_cast<sim::ProcessId>(n - 1),
                 sim::FaultPlan::silent());
    return sim;
  }

  void expect_all_output(sim::Simulation& sim, Value v) const {
    for (sim::ProcessId i = 0; i + 1 < n; ++i) {
      auto& host = dynamic_cast<ApproverHost&>(sim.process(i));
      ASSERT_TRUE(host.approver().done()) << i;
      EXPECT_EQ(host.approver().output(), std::set<Value>{v}) << i;
    }
  }

  /// Runs every process with `cfg` on input `input` and returns the oks
  /// process 0 applied: W honest certificates, each cached in cfg's ok
  /// memo when cfg has a batcher.
  std::vector<Approver::AppliedOk> honest_oks(const Approver::Config& cfg,
                                              Value input,
                                              std::uint64_t seed) const {
    sim::SimConfig scfg;
    scfg.n = n;
    scfg.f = 1;
    scfg.seed = seed;
    sim::Simulation sim(scfg);
    for (std::size_t i = 0; i < n; ++i)
      sim.add_process(std::make_unique<ApproverHost>(cfg, input));
    sim.corrupt(static_cast<sim::ProcessId>(n - 1), sim::FaultPlan::silent());
    sim.start();
    sim.run();
    const auto& host = dynamic_cast<ApproverHost&>(sim.process(0));
    EXPECT_TRUE(host.approver().done());
    return host.approver().applied_oks();
  }

  /// A process outside the "apv" ok committee.
  crypto::ProcessId not_ok_elected() const {
    for (crypto::ProcessId i = 0; i < n; ++i)
      if (!sampler->sample(i, "apv/ok").sampled) return i;
    ADD_FAILURE() << "every process is in the ok committee";
    return 0;
  }

  std::size_t n;
  committee::Params params;
  std::shared_ptr<crypto::KeyRegistry> registry;
  std::shared_ptr<crypto::FastVrf> vrf;
  std::shared_ptr<committee::Sampler> sampler;
  std::shared_ptr<crypto::Signer> signer;
};

TEST(ApproverAttacks, InitWithForgedElectionProofIgnored) {
  AttackFixture fx(40);
  auto sim = fx.make_sim(kZero, 1);
  sim->start();
  sim::ProcessId attacker = 39;
  Writer w;
  w.u8(kOne).blob(bytes_of("fake-election"));
  for (sim::ProcessId to = 0; to < 39; ++to)
    sim->inject(attacker, to, "apv/init", w.bytes(), 2);
  sim->run();
  fx.expect_all_output(*sim, kZero);
}

TEST(ApproverAttacks, EchoWithoutMembershipIgnored) {
  AttackFixture fx(40);
  auto sim = fx.make_sim(kZero, 2);
  sim->start();
  sim::ProcessId attacker = 39;
  // Valid signature over <echo,1> but an election proof for the WRONG
  // committee seed (init instead of echo/1).
  auto wrong_committee = fx.sampler->sample(attacker, "apv/init");
  Writer sig_msg;
  sig_msg.str("apv").str("echo").u8(kOne);
  Bytes sig = fx.signer->sign(attacker, sig_msg.bytes());
  Writer w;
  w.u8(kOne).blob(wrong_committee.proof).blob(sig);
  for (sim::ProcessId to = 0; to < 39; ++to)
    sim->inject(attacker, to, "apv/echo", w.bytes(), 3);
  sim->run();
  fx.expect_all_output(*sim, kZero);
}

TEST(ApproverAttacks, OkWithDuplicatedEchoEntriesRejected) {
  // W copies of ONE valid signed echo do not make a quorum: receivers
  // must require W *distinct* echo senders.
  AttackFixture fx(40);
  auto sim = fx.make_sim(kZero, 3);
  sim->start();
  sim::ProcessId attacker = 39;

  // Manufacture one genuinely valid signed echo for value 0 from some
  // echo(0)-committee member (the attacker can read the wire, so this is
  // realistic), then duplicate it W times in a forged ok.
  crypto::ProcessId echoer = 0;
  bool found = false;
  for (crypto::ProcessId i = 0; i < 39 && !found; ++i) {
    if (fx.sampler->sample(i, "apv/echo/0").sampled) {
      echoer = i;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  auto echo_election = fx.sampler->sample(echoer, "apv/echo/0");
  Writer sig_msg;
  sig_msg.str("apv").str("echo").u8(kZero);
  Bytes sig = fx.signer->sign(echoer, sig_msg.bytes());

  auto ok_election = fx.sampler->sample(attacker, "apv/ok");
  Writer w;
  w.u8(kZero).blob(ok_election.proof);
  w.u32(static_cast<std::uint32_t>(fx.params.W));
  for (std::size_t i = 0; i < fx.params.W; ++i)
    w.u32(echoer).blob(sig).blob(echo_election.proof);
  for (sim::ProcessId to = 0; to < 39; ++to)
    sim->inject(attacker, to, "apv/ok", w.bytes(), 2 + 2 * fx.params.W);
  sim->run();

  // The forged oks count at most once per *sender* anyway, but the value
  // is the honest one; the sharper check: receivers who complete must
  // have needed W distinct ok senders, so the run completes exactly as
  // the honest run does.
  fx.expect_all_output(*sim, kZero);
}

TEST(ApproverAttacks, OkForValueNobodyInitializedCannotForge) {
  // Even an ok-committee member cannot produce a valid ok for value 1
  // when all correct inits were 0: it would need W signed echoes for 1,
  // and no correct echo(1) member ever signs one.
  AttackFixture fx(40);
  auto sim = fx.make_sim(kZero, 4);
  sim->start();
  sim::ProcessId attacker = 39;
  auto ok_election = fx.sampler->sample(attacker, "apv/ok");
  // Self-signed junk "echoes" from ids 0..W-1.
  Writer w;
  w.u8(kOne).blob(ok_election.proof);
  w.u32(static_cast<std::uint32_t>(fx.params.W));
  Writer sig_msg;
  sig_msg.str("apv").str("echo").u8(kOne);
  Bytes attacker_sig = fx.signer->sign(attacker, sig_msg.bytes());
  for (std::uint32_t i = 0; i < fx.params.W; ++i)
    w.u32(i).blob(attacker_sig).blob(fx.sampler->sample(i, "apv/echo/1").proof);
  for (sim::ProcessId to = 0; to < 39; ++to)
    sim->inject(attacker, to, "apv/ok", w.bytes(), 2 + 2 * fx.params.W);
  sim->run();
  fx.expect_all_output(*sim, kZero);
}

TEST(ApproverAttacks, TruncatedAndOversizedPayloadsIgnored) {
  AttackFixture fx(40);
  auto sim = fx.make_sim(kOne, 5);
  sim->start();
  sim::ProcessId attacker = 39;
  for (sim::ProcessId to : {0u, 1u, 2u}) {
    sim->inject(attacker, to, "apv/init", Bytes{}, 1);          // empty
    sim->inject(attacker, to, "apv/echo", bytes_of("x"), 1);    // truncated
    Writer w;
    w.u8(kOne).blob(Bytes(4096, 0xcc)).blob(Bytes(4096, 0xdd));
    w.u8(99);  // trailing garbage
    sim->inject(attacker, to, "apv/echo", w.bytes(), 1);
    sim->inject(attacker, to, "apv/ok", bytes_of("?"), 1);
  }
  sim->run();
  fx.expect_all_output(*sim, kOne);
}

TEST(ApproverAttacks, CrossInstanceReplayIgnored) {
  // Proofs and signatures from instance "apv" must not validate in
  // instance "apv2" (the tag is part of every seed and signed message).
  AttackFixture fx(40);
  sim::SimConfig cfg;
  cfg.n = 40;
  cfg.f = 1;
  cfg.seed = 6;
  sim::Simulation sim(cfg);
  Approver::Config acfg = fx.config();
  acfg.tag = "apv2";
  for (std::size_t i = 0; i < 40; ++i)
    sim.add_process(std::make_unique<ApproverHost>(acfg, kZero));
  sim.corrupt(39, sim::FaultPlan::silent());
  sim.start();

  // Replay an "apv"-instance init election proof into "apv2".
  auto foreign = fx.sampler->sample(39, "apv/init");
  Writer w;
  w.u8(kOne).blob(foreign.proof);
  for (sim::ProcessId to = 0; to < 39; ++to)
    sim.inject(39, to, "apv2/init", w.bytes(), 2);
  sim.run();
  for (sim::ProcessId i = 0; i < 39; ++i) {
    auto& host = dynamic_cast<ApproverHost&>(sim.process(i));
    ASSERT_TRUE(host.approver().done()) << i;
    EXPECT_EQ(host.approver().output(), std::set<Value>{kZero}) << i;
  }
}

/// An <ok> payload taken apart, so a test can change one field and put
/// it back together.
struct OkParts {
  struct Entry {
    crypto::ProcessId sender = 0;
    Bytes sig;
    Bytes election;
  };
  Value v = kZero;
  Bytes election;
  std::vector<Entry> entries;

  static OkParts decode(BytesView payload) {
    OkParts ok;
    Reader r(payload);
    ok.v = r.u8();
    ok.election = r.blob();
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      Entry e;
      e.sender = r.u32();
      e.sig = r.blob();
      e.election = r.blob();
      ok.entries.push_back(std::move(e));
    }
    r.done();
    return ok;
  }

  Bytes encode() const {
    Writer w;
    w.u8(v).blob(election).u32(static_cast<std::uint32_t>(entries.size()));
    for (const Entry& e : entries) w.u32(e.sender).blob(e.sig).blob(e.election);
    return w.take();
  }
};

/// The four byte variants of an honest certificate, by name.
std::vector<std::pair<std::string, Bytes>> forged_variants(BytesView honest) {
  std::vector<std::pair<std::string, Bytes>> out;
  OkParts ok = OkParts::decode(honest);
  ok.entries[0].sig[0] ^= 1;
  out.emplace_back("flipped signature byte", ok.encode());
  ok = OkParts::decode(honest);
  ok.entries[0].election.back() ^= 1;
  out.emplace_back("flipped embedded-election byte", ok.encode());
  ok = OkParts::decode(honest);
  ok.v = ok.v == kZero ? kOne : kZero;
  out.emplace_back("flipped v byte", ok.encode());
  ok = OkParts::decode(honest);
  ok.entries[1] = ok.entries[0];
  out.emplace_back("duplicated signer", ok.encode());
  return out;
}

/// A harness Context: an approver driven by hand sends nowhere.
class Quiet final : public sim::Context {
 public:
  explicit Quiet(std::size_t n) : n_(n) {}
  sim::ProcessId self() const override { return 0; }
  std::size_t n() const override { return n_; }
  void send(sim::ProcessId, sim::Tag, SharedBytes, std::size_t) override {}
  void broadcast(sim::Tag, SharedBytes, std::size_t) override {}
  Rng& rng() override { return rng_; }
  std::uint64_t causal_depth() const override { return 0; }

 private:
  std::size_t n_;
  Rng rng_{1};
};

sim::Message ok_message(crypto::ProcessId from, SharedBytes payload) {
  sim::Message m;
  m.from = from;
  m.tag = sim::Tag("apv/ok");
  m.payload = std::move(payload);
  return m;
}

/// Delivers `msgs` in order to a fresh approver built from `cfg` (its own
/// init and echo phases never run) and returns it.
std::unique_ptr<Approver> deliver_oks(const Approver::Config& cfg,
                                      const std::vector<sim::Message>& msgs) {
  auto approver = std::make_unique<Approver>(cfg, kZero);
  Quiet ctx(cfg.params.n);
  for (const sim::Message& m : msgs) approver->handle(ctx, m);
  return approver;
}

TEST(ApproverCertMemo, VariantsOfACachedCertificateAreRejected) {
  AttackFixture fx(40);
  const Approver::Config cfg = fx.batched_config();
  const auto honest = fx.honest_oks(cfg, kZero, 7);
  ASSERT_EQ(honest.size(), fx.params.W);
  const Approver::AppliedOk& ok = honest[0];
  crypto::VerdictMemo& memo = cfg.batcher->ok_memo();

  // The honest certificate answers from the memo.
  const std::uint64_t hits = memo.hits();
  EXPECT_EQ(Approver::verify_ok_payload(cfg, "apv", ok.sender, ok.buf, ok.buf),
            std::optional<Value>(kZero));
  EXPECT_EQ(memo.hits(), hits + 1);

  for (const auto& [name, bytes] : forged_variants(ok.buf)) {
    const SharedBytes forged(bytes);
    EXPECT_FALSE(
        Approver::verify_ok_payload(cfg, "apv", ok.sender, forged, forged))
        << name;
    // Through handle_ok: the forged ok takes the place of the honest one
    // from the same sender, so the receiver stays one ok short of W.
    std::vector<sim::Message> msgs{ok_message(ok.sender, forged)};
    for (std::size_t i = 1; i < honest.size(); ++i)
      msgs.push_back(ok_message(honest[i].sender, honest[i].buf));
    EXPECT_FALSE(deliver_oks(cfg, msgs)->done()) << name;
    msgs.push_back(ok_message(ok.sender, ok.buf));
    EXPECT_TRUE(deliver_oks(cfg, msgs)->done()) << name;
  }
}

TEST(ApproverCertMemo, CachedCertificateRelayedByANonMemberIsRejected) {
  AttackFixture fx(40);
  const Approver::Config cfg = fx.batched_config();
  const auto honest = fx.honest_oks(cfg, kZero, 8);
  const Approver::AppliedOk& ok = honest[0];
  const crypto::ProcessId relay = fx.not_ok_elected();

  EXPECT_FALSE(Approver::verify_ok_payload(cfg, "apv", relay, ok.buf, ok.buf));
  std::vector<sim::Message> msgs{ok_message(relay, ok.buf)};
  for (std::size_t i = 1; i < honest.size(); ++i)
    msgs.push_back(ok_message(honest[i].sender, honest[i].buf));
  const auto approver = deliver_oks(cfg, msgs);
  EXPECT_FALSE(approver->done());
  EXPECT_EQ(approver->applied_oks().size() + approver->pending_oks(),
            fx.params.W - 1);
}

TEST(ApproverCertMemo, ForgedCertificateSeenFirstDoesNotPoisonTheHonestOne) {
  AttackFixture fx(40);
  const auto honest = fx.honest_oks(fx.config(), kZero, 9);
  const Approver::AppliedOk& ok = honest[0];

  // A fresh memo meets every forged variant before the honest bytes.
  const Approver::Config cfg = fx.batched_config();
  for (const auto& [name, bytes] : forged_variants(ok.buf)) {
    const SharedBytes forged(bytes);
    EXPECT_FALSE(
        Approver::verify_ok_payload(cfg, "apv", ok.sender, forged, forged))
        << name;
  }
  EXPECT_GT(cfg.batcher->ok_memo().size(), 0u);  // the negatives are cached
  EXPECT_EQ(Approver::verify_ok_payload(cfg, "apv", ok.sender, ok.buf, ok.buf),
            std::optional<Value>(kZero));

  std::vector<sim::Message> msgs;
  for (const auto& [name, bytes] : forged_variants(ok.buf))
    msgs.push_back(ok_message(ok.sender, SharedBytes(bytes)));
  for (const Approver::AppliedOk& h : honest)
    msgs.push_back(ok_message(h.sender, h.buf));
  const auto approver = deliver_oks(cfg, msgs);
  ASSERT_TRUE(approver->done());
  EXPECT_EQ(approver->output(), std::set<Value>{kZero});
}

TEST(ApproverCertMemo, BatcherAndInlinePathsAcceptTheSameSet) {
  AttackFixture fx(40);
  const Approver::Config batched = fx.batched_config();
  const Approver::Config inline_cfg = fx.config();
  const auto honest = fx.honest_oks(batched, kZero, 10);
  const crypto::ProcessId relay = fx.not_ok_elected();

  // Every honest ok, each preceded by its forged variants and by a relay
  // of it from a non-member: the memo holds the honest verdicts, so the
  // batcher path answers the honest ones from it.
  std::vector<sim::Message> msgs;
  for (const Approver::AppliedOk& h : honest) {
    for (const auto& [name, bytes] : forged_variants(h.buf))
      msgs.push_back(ok_message(h.sender, SharedBytes(bytes)));
    msgs.push_back(ok_message(relay, h.buf));
    msgs.push_back(ok_message(h.sender, h.buf));
  }
  for (const sim::Message& m : msgs)
    EXPECT_EQ(
        Approver::verify_ok_payload(batched, "apv", m.from, m.payload,
                                    m.payload),
        Approver::verify_ok_payload(inline_cfg, "apv", m.from, m.payload,
                                    m.payload));

  const auto a = deliver_oks(batched, msgs);
  const auto b = deliver_oks(inline_cfg, msgs);
  ASSERT_TRUE(a->done());
  ASSERT_TRUE(b->done());
  ASSERT_EQ(a->applied_oks().size(), b->applied_oks().size());
  for (std::size_t i = 0; i < a->applied_oks().size(); ++i) {
    EXPECT_EQ(a->applied_oks()[i].sender, b->applied_oks()[i].sender) << i;
    EXPECT_EQ(a->applied_oks()[i].buf, b->applied_oks()[i].buf) << i;
  }
  EXPECT_GT(batched.batcher->ok_memo().hits(), 0u);
}

}  // namespace
}  // namespace coincidence::ba
