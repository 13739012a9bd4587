#include "crypto/ddh_vrf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "common/errors.h"
#include "common/ser.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace coincidence::crypto {
namespace {

class DdhVrfTest : public ::testing::Test {
 protected:
  static const DdhVrf& vrf() {
    static const DdhVrf v{PrimeGroup::generate(128, 11)};
    return v;
  }
  static const VrfKeyPair& keys() {
    static const VrfKeyPair kp = [] {
      Rng rng(1);
      return vrf().keygen(rng);
    }();
    return kp;
  }
};

TEST_F(DdhVrfTest, HonestEvalVerifies) {
  VrfOutput out = vrf().eval(keys().sk, bytes_of("round-1"));
  EXPECT_TRUE(vrf().verify(keys().pk, bytes_of("round-1"), out));
}

TEST_F(DdhVrfTest, EvalIsDeterministic) {
  VrfOutput a = vrf().eval(keys().sk, bytes_of("x"));
  VrfOutput b = vrf().eval(keys().sk, bytes_of("x"));
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.proof, b.proof);
}

TEST_F(DdhVrfTest, OutputDependsOnInput) {
  EXPECT_NE(vrf().eval(keys().sk, bytes_of("a")).value,
            vrf().eval(keys().sk, bytes_of("b")).value);
}

TEST_F(DdhVrfTest, OutputDependsOnKey) {
  Rng rng(2);
  VrfKeyPair other = vrf().keygen(rng);
  EXPECT_NE(vrf().eval(keys().sk, bytes_of("x")).value,
            vrf().eval(other.sk, bytes_of("x")).value);
}

TEST_F(DdhVrfTest, WrongInputRejected) {
  VrfOutput out = vrf().eval(keys().sk, bytes_of("a"));
  EXPECT_FALSE(vrf().verify(keys().pk, bytes_of("b"), out));
}

TEST_F(DdhVrfTest, WrongKeyRejected) {
  Rng rng(3);
  VrfKeyPair other = vrf().keygen(rng);
  VrfOutput out = vrf().eval(keys().sk, bytes_of("x"));
  EXPECT_FALSE(vrf().verify(other.pk, bytes_of("x"), out));
}

TEST_F(DdhVrfTest, TamperedValueRejected) {
  VrfOutput out = vrf().eval(keys().sk, bytes_of("x"));
  out.value[0] ^= 0x01;
  EXPECT_FALSE(vrf().verify(keys().pk, bytes_of("x"), out));
}

TEST_F(DdhVrfTest, TamperedProofRejected) {
  VrfOutput out = vrf().eval(keys().sk, bytes_of("x"));
  for (std::size_t pos : {std::size_t{5}, out.proof.size() / 2, out.proof.size() - 1}) {
    VrfOutput bad = out;
    bad.proof[pos] ^= 0xff;
    EXPECT_FALSE(vrf().verify(keys().pk, bytes_of("x"), bad)) << pos;
  }
}

TEST_F(DdhVrfTest, GarbageProofRejectedNotCrash) {
  VrfOutput out = vrf().eval(keys().sk, bytes_of("x"));
  out.proof = bytes_of("not a proof at all");
  EXPECT_FALSE(vrf().verify(keys().pk, bytes_of("x"), out));
  out.proof.clear();
  EXPECT_FALSE(vrf().verify(keys().pk, bytes_of("x"), out));
}

TEST_F(DdhVrfTest, UniquenessForgingDifferentValueFails) {
  // An adversary who keeps the honest proof but swaps in a different value
  // (or vice versa) must be rejected: the value is bound to Γ via H2.
  VrfOutput honest = vrf().eval(keys().sk, bytes_of("x"));
  VrfOutput other = vrf().eval(keys().sk, bytes_of("y"));
  VrfOutput frankenstein{other.value, honest.proof};
  EXPECT_FALSE(vrf().verify(keys().pk, bytes_of("x"), frankenstein));
}

TEST_F(DdhVrfTest, SmallOrderGammaRejected) {
  // Substitute Γ = p-1 (the order-2 element): must fail the subgroup check.
  const PrimeGroup& g = vrf().group();
  VrfOutput out = vrf().eval(keys().sk, bytes_of("x"));
  Reader r(out.proof);
  (void)r.blob();  // discard honest gamma
  Bytes a = r.blob();
  Bytes b = r.blob();
  Bytes s = r.blob();
  Writer forged;
  forged.blob(g.encode(g.p() - Bignum(1))).blob(a).blob(b).blob(s);
  VrfOutput bad{out.value, forged.take()};
  EXPECT_FALSE(vrf().verify(keys().pk, bytes_of("x"), bad));
}

TEST_F(DdhVrfTest, ValuesLookUniform) {
  // First byte of outputs over many inputs should spread.
  std::set<std::uint8_t> first_bytes;
  for (int i = 0; i < 64; ++i) {
    VrfOutput out = vrf().eval(keys().sk, bytes_of_u64(i));
    first_bytes.insert(out.value[0]);
  }
  EXPECT_GT(first_bytes.size(), 40u);
}

TEST_F(DdhVrfTest, KeygenProducesValidKeys) {
  Rng rng(99);
  for (int i = 0; i < 5; ++i) {
    VrfKeyPair kp = vrf().keygen(rng);
    VrfOutput out = vrf().eval(kp.sk, bytes_of("probe"));
    EXPECT_TRUE(vrf().verify(kp.pk, bytes_of("probe"), out));
  }
}

TEST_F(DdhVrfTest, ValueSizeIs32) {
  EXPECT_EQ(vrf().value_size(), 32u);
  VrfOutput out = vrf().eval(keys().sk, bytes_of("x"));
  EXPECT_EQ(out.value.size(), 32u);
}

TEST(DdhVrfPinned, Eval256MatchesPinnedVector) {
  // A 256-bit group (the log_ddh_small shape), pinned byte for byte: the
  // value and the whole proof (Γ, a, b, s) must not move when the
  // exponentiation engine underneath changes. The group itself comes
  // from the seeded safe-prime search, so this also pins that search.
  const DdhVrf vrf{PrimeGroup::generate(256, 3)};
  Rng rng(5);
  const VrfKeyPair kp = vrf.keygen(rng);
  const VrfOutput out = vrf.eval(kp.sk, bytes_of("slot-7/round-2"));
  EXPECT_EQ(vrf.group().p().to_hex(),
            "e00e3bc82a9862e6b9fcec0f3e07377974358a39546b96c5e8d02d828925b3d7");
  EXPECT_EQ(to_hex(kp.pk),
            "426e9853aadafbc59ed8f6e9c7d07c3c881ae36c054a86e7bc157fdfc09de521");
  EXPECT_EQ(to_hex(out.value),
            "a772b20a8b27c47d25f82962b3667cb6edf9b5b53d15ba11f8410d0dcbf7f2bc");
  EXPECT_EQ(to_hex(out.proof),
            "00000020a50e80afada1ef4f7492455ff86216942f14abe86bdc150d180830e1"
            "79e0db1c000000207288b15fefa37fb2be4317bb36bbe503eea2bd10422df96b"
            "e42f6b33bf6a1a3e00000020494d98dbd160dad404e7d0ec871a277cab0b1600"
            "3f5ecb5c00fa5c85cc21fce9000000205ad922d2144f0b45f329b9ab21f9070f"
            "1128bbac62bdbc46e93415f0a1cfd579");
  EXPECT_TRUE(vrf.verify(kp.pk, bytes_of("slot-7/round-2"), out));
}

// The untabled formulas: eval and verify written out over the group's
// variable-base ladders (every power of h and g a plain exp, both DLEQ
// equations Straus dual ladders), independent of DdhVrf's per-input
// tables. The table-backed instance must match them byte for byte.
Bignum reference_challenge(const PrimeGroup& g, const Bignum& h,
                           const Bignum& pk, const Bignum& gamma,
                           const Bignum& a, const Bignum& b) {
  Writer w;
  w.blob(g.encode(g.g()))
      .blob(g.encode(h))
      .blob(g.encode(pk))
      .blob(g.encode(gamma))
      .blob(g.encode(a))
      .blob(g.encode(b));
  Digest d = sha256(concat({bytes_of("h3"), BytesView(w.bytes())}));
  Bignum c = Bignum::from_bytes_be(BytesView(d.data(), 16));
  return c >= g.q() ? c % g.q() : c;
}

VrfOutput reference_eval(const PrimeGroup& g, BytesView sk_bytes,
                         BytesView input) {
  const Bignum sk = Bignum::from_bytes_be(sk_bytes);
  const Bignum h = g.hash_to_group(input);
  const Bignum gamma = g.exp(h, sk);
  HmacDrbg drbg(concat({bytes_of("nonce"), sk_bytes, input}));
  const Bignum k =
      Bignum::from_bytes_be(drbg.generate(g.byte_len() + 8)) %
          (g.q() - Bignum(1)) +
      Bignum(1);
  const Bignum a = g.exp(g.g(), k);
  const Bignum b = g.exp(h, k);
  const Bignum pk = g.exp(g.g(), sk);
  const Bignum c = reference_challenge(g, h, pk, gamma, a, b);
  const Bignum s = Bignum::sub_mod(k % g.q(), Bignum::mul_mod(c, sk, g.q()),
                                   g.q());
  Writer proof;
  proof.blob(g.encode(gamma))
      .blob(g.encode(a))
      .blob(g.encode(b))
      .blob(s.to_bytes_be(g.byte_len()));
  return {sha256_bytes(concat({bytes_of("h2"), g.encode(gamma)})),
          proof.take()};
}

bool reference_verify(const PrimeGroup& g, BytesView pk_bytes,
                      BytesView input, BytesView value, BytesView proof) {
  Bignum gamma, a, b, s;
  try {
    Reader r(proof);
    gamma = Bignum::from_bytes_be(r.blob_view());
    a = Bignum::from_bytes_be(r.blob_view());
    b = Bignum::from_bytes_be(r.blob_view());
    s = Bignum::from_bytes_be(r.blob_view());
    r.done();
  } catch (const CodecError&) {
    return false;
  }
  const Bignum pk = Bignum::from_bytes_be(pk_bytes);
  if (!g.is_element(pk) || !g.is_element(gamma) || !g.is_element(a) ||
      !g.is_element(b) || s >= g.q())
    return false;
  const Bignum h = g.hash_to_group(input);
  const Bignum c = reference_challenge(g, h, pk, gamma, a, b);
  return g.dual_exp(g.g(), s, pk, c) == a && g.dual_exp(h, s, gamma, c) == b &&
         ct_equal(sha256_bytes(concat({bytes_of("h2"), g.encode(gamma)})),
                  value);
}

/// Forgeries of an honest output, one per field of the transcript.
std::vector<VrfOutput> forgeries_of(const PrimeGroup& g, const VrfOutput& out) {
  std::vector<VrfOutput> forged;
  auto with_blob = [&](int which, const std::function<void(Bytes&)>& edit) {
    Reader r(out.proof);
    std::vector<Bytes> blobs;
    for (int i = 0; i < 4; ++i) blobs.push_back(r.blob());
    edit(blobs[static_cast<std::size_t>(which)]);
    Writer w;
    for (const Bytes& blob : blobs) w.blob(blob);
    forged.push_back({out.value, w.take()});
  };
  for (int which = 0; which < 4; ++which)
    with_blob(which, [](Bytes& b) { b.back() ^= 0x01; });
  // Γ replaced by g: a group element, so only the equations reject it.
  with_blob(0, [&](Bytes& b) { b = g.encode(g.g()); });
  VrfOutput bad_value = out;
  bad_value.value[3] ^= 0x80;
  forged.push_back(bad_value);
  return forged;
}

/// A key holder's proof for Γ' = Γ·h instead of Γ = h^sk: a and s are
/// honest for the forged challenge, so a = g^s·pk^c holds and only the
/// second equation (b = h^s·Γ'^c) rejects it — the VRF's uniqueness.
VrfOutput second_output_forgery(const PrimeGroup& g, BytesView sk_bytes,
                                BytesView input) {
  const Bignum sk = Bignum::from_bytes_be(sk_bytes);
  const Bignum h = g.hash_to_group(input);
  const Bignum gamma = g.mul(g.exp(h, sk), h);
  const Bignum k = Bignum(123457) % g.q();
  const Bignum a = g.exp(g.g(), k), b = g.exp(h, k);
  const Bignum c = reference_challenge(g, h, g.exp(g.g(), sk), gamma, a, b);
  const Bignum s = Bignum::sub_mod(k, Bignum::mul_mod(c, sk, g.q()), g.q());
  Writer proof;
  proof.blob(g.encode(gamma))
      .blob(g.encode(a))
      .blob(g.encode(b))
      .blob(s.to_bytes_be(g.byte_len()));
  return {sha256_bytes(concat({bytes_of("h2"), g.encode(gamma)})),
          proof.take()};
}

class DdhVrfTables : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DdhVrfTables, EvalMatchesUntabledFormula) {
  const DdhVrf vrf{PrimeGroup::generate(GetParam(), 17)};
  Rng rng(8);
  for (int key = 0; key < 4; ++key) {
    const VrfKeyPair kp = vrf.keygen(rng);
    EXPECT_EQ(kp.pk, vrf.group().encode(vrf.group().exp(
                         vrf.group().g(), Bignum::from_bytes_be(kp.sk))));
    // Each input twice: the first eval builds the input's table, the
    // second runs on the cached one.
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < 6; ++i) {
        const Bytes input = bytes_of_u64(static_cast<std::uint64_t>(i));
        const VrfOutput got = vrf.eval(kp.sk, input);
        const VrfOutput want = reference_eval(vrf.group(), kp.sk, input);
        EXPECT_EQ(got.value, want.value) << "key " << key << " input " << i;
        EXPECT_EQ(got.proof, want.proof) << "key " << key << " input " << i;
      }
    }
  }
}

TEST_P(DdhVrfTables, VerifyAndBatchMatchUntabledVerdicts) {
  const DdhVrf vrf{PrimeGroup::generate(GetParam(), 19)};
  const PrimeGroup& g = vrf.group();
  Rng rng(9);
  std::vector<VrfKeyPair> keys;
  for (int i = 0; i < 3; ++i) keys.push_back(vrf.keygen(rng));
  // Honest, forged and cross-input entries over three inputs.
  std::vector<Bytes> pks, inputs;
  std::vector<VrfOutput> outs;
  for (std::size_t i = 0; i < 9; ++i) {
    const VrfKeyPair& kp = keys[i % keys.size()];
    const Bytes input = bytes_of_u64(100 + i % 3);
    const VrfOutput honest = vrf.eval(kp.sk, input);
    pks.push_back(kp.pk);
    inputs.push_back(input);
    outs.push_back(honest);
    std::vector<VrfOutput> forged = forgeries_of(g, honest);
    forged.push_back(second_output_forgery(g, kp.sk, input));
    for (const VrfOutput& bad : forged) {
      pks.push_back(kp.pk);
      inputs.push_back(input);
      outs.push_back(bad);
    }
    pks.push_back(kp.pk);  // an honest proof offered for another input
    inputs.push_back(bytes_of_u64(100 + (i + 1) % 3));
    outs.push_back(honest);
  }
  std::vector<VrfBatchEntry> entries;
  std::vector<char> want;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const bool ok = reference_verify(g, pks[i], inputs[i], outs[i].value,
                                     outs[i].proof);
    accepted += ok ? 1 : 0;
    want.push_back(ok ? 1 : 0);
    EXPECT_EQ(vrf.verify(pks[i], inputs[i], outs[i]), ok) << i;
    entries.push_back({pks[i], inputs[i], outs[i].value, outs[i].proof});
  }
  EXPECT_EQ(accepted, 9u);  // exactly the honest entries
  // The whole mixed batch, an all-honest batch and an all-forged batch.
  std::vector<char> got;
  vrf.batch_verify(entries, got);
  EXPECT_EQ(got, want);
  std::vector<VrfBatchEntry> honest, forged;
  for (std::size_t i = 0; i < entries.size(); ++i)
    (want[i] ? honest : forged).push_back(entries[i]);
  vrf.batch_verify(honest, got);
  EXPECT_EQ(got, std::vector<char>(honest.size(), 1));
  vrf.batch_verify(forged, got);
  EXPECT_EQ(got, std::vector<char>(forged.size(), 0));
}

TEST_P(DdhVrfTables, NonMemberKeyRejectedFirstAndWhenCached) {
  // p − pk is a non-residue (−1 is one for p ≡ 3 mod 4): the key's state
  // is built on the first verify with a negative verdict, and the cached
  // verdict must reject again, on verify and in a batch alike.
  const DdhVrf vrf{PrimeGroup::generate(GetParam(), 21)};
  const PrimeGroup& g = vrf.group();
  Rng rng(12);
  const VrfKeyPair kp = vrf.keygen(rng);
  const Bytes input = bytes_of("round-3");
  const VrfOutput out = vrf.eval(kp.sk, input);
  const Bytes bad_pk = g.encode(g.p() - Bignum::from_bytes_be(kp.pk));
  ASSERT_FALSE(g.is_element(Bignum::from_bytes_be(bad_pk)));
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_FALSE(vrf.verify(bad_pk, input, out)) << "pass " << pass;
    EXPECT_FALSE(reference_verify(g, bad_pk, input, out.value, out.proof));
    std::vector<char> got;
    const std::vector<VrfBatchEntry> batch = {
        {bad_pk, input, out.value, out.proof},
        {kp.pk, input, out.value, out.proof},
        {bad_pk, input, out.value, out.proof}};
    vrf.batch_verify(batch, got);
    EXPECT_EQ(got, (std::vector<char>{0, 1, 0})) << "pass " << pass;
  }
  EXPECT_TRUE(vrf.verify(kp.pk, input, out));
}

TEST_P(DdhVrfTables, ForgeriesUnderACachedKeyRejected) {
  // Honest verifies cache the key's state and build its pk^c table;
  // every forgery offered under the cached key must still fail.
  const DdhVrf vrf{PrimeGroup::generate(GetParam(), 22)};
  const PrimeGroup& g = vrf.group();
  Rng rng(13);
  const VrfKeyPair kp = vrf.keygen(rng);
  const Bytes input = bytes_of("round-4");
  const VrfOutput honest = vrf.eval(kp.sk, input);
  for (int pass = 0; pass < 2; ++pass)
    ASSERT_TRUE(vrf.verify(kp.pk, input, honest));
  std::vector<VrfOutput> forged = forgeries_of(g, honest);
  forged.push_back(second_output_forgery(g, kp.sk, input));
  for (std::size_t i = 0; i < forged.size(); ++i) {
    EXPECT_FALSE(vrf.verify(kp.pk, input, forged[i])) << i;
    std::vector<char> got;
    const std::vector<VrfBatchEntry> single = {
        {kp.pk, input, forged[i].value, forged[i].proof}};
    vrf.batch_verify(single, got);
    EXPECT_EQ(got, std::vector<char>{0}) << i;
  }
  EXPECT_TRUE(vrf.verify(kp.pk, input, honest));
}

TEST_P(DdhVrfTables, KeysPastTheCacheBoundStillMatch) {
  // More keys than the public- and secret-key caches hold: the first
  // keys' states are dropped and rebuilt, and verdicts and outputs do not
  // change.
  const DdhVrf vrf{PrimeGroup::generate(GetParam(), 24)};
  const PrimeGroup& g = vrf.group();
  const std::size_t table = g.comb(g.g(), 128).table_bytes();
  // A secret-key entry is charged at least 64 bytes.
  const std::size_t keys = std::max(DdhVrf::kKeyCacheBytes / table,
                                    DdhVrf::kSecretKeyCacheBytes / 64) +
                           16;
  Rng rng(14);
  const Bytes input = bytes_of("round-5");
  std::vector<VrfKeyPair> kps;
  std::vector<VrfOutput> outs;
  for (std::size_t i = 0; i < keys; ++i) {
    kps.push_back(vrf.keygen(rng));
    outs.push_back(vrf.eval(kps.back().sk, input));
    ASSERT_TRUE(vrf.verify(kps.back().pk, input, outs.back())) << i;
  }
  for (std::size_t i = 0; i < keys; i += keys / 7) {
    EXPECT_TRUE(vrf.verify(kps[i].pk, input, outs[i])) << i;
    const VrfOutput want = reference_eval(g, kps[i].sk, input);
    EXPECT_EQ(outs[i].proof, want.proof) << i;
    EXPECT_EQ(vrf.eval(kps[i].sk, input).proof, want.proof) << i;
    // Key i's proof under key i + 1 fails, before and after eviction.
    const Bytes& other = kps[(i + 1) % keys].pk;
    EXPECT_FALSE(vrf.verify(other, input, outs[i])) << i;
    EXPECT_FALSE(reference_verify(g, other, input, outs[i].value,
                                  outs[i].proof));
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, DdhVrfTables, ::testing::Values(64, 128, 256),
                         [](const auto& info) {
                           return "b" + std::to_string(info.param);
                         });

// Distinct inputs enough to overflow the input cache of `group`.
std::uint64_t inputs_past_the_bound(const PrimeGroup& group) {
  return DdhVrf::kInputCacheBytes / group.comb(group.g()).table_bytes() + 40;
}

TEST(DdhVrfTablesBound, InputsPastTheCacheBoundStillMatch) {
  // More distinct inputs than the instance caches: early inputs are
  // dropped and rebuilt, and their outputs do not change.
  const DdhVrf vrf{PrimeGroup::generate(64, 23)};
  const std::uint64_t inputs = inputs_past_the_bound(vrf.group());
  Rng rng(10);
  const VrfKeyPair kp = vrf.keygen(rng);
  std::vector<VrfOutput> first;
  for (std::uint64_t i = 0; i < inputs; ++i)
    first.push_back(vrf.eval(kp.sk, bytes_of_u64(i)));
  for (std::uint64_t i = 0; i < inputs; i += inputs / 16) {
    const VrfOutput again = vrf.eval(kp.sk, bytes_of_u64(i));
    EXPECT_EQ(again.proof, first[i].proof) << i;
    EXPECT_EQ(again.proof,
              reference_eval(vrf.group(), kp.sk, bytes_of_u64(i)).proof);
    EXPECT_TRUE(vrf.verify(kp.pk, bytes_of_u64(i), first[i])) << i;
  }
}

TEST(DdhVrfConcurrency, FourThreadsEvalAndVerifyOnOneInstance) {
  // Four threads share one instance with 32 keys: they miss, build,
  // insert and evict input states for the same inputs at the same time,
  // and build each key's state and pk^c table while other threads look
  // it up. Every output must equal a single-threaded instance's.
  const PrimeGroup group = PrimeGroup::generate(64, 29);
  const DdhVrf serial{group};
  Rng rng(11);
  std::vector<VrfKeyPair> keys;
  for (int i = 0; i < 32; ++i) keys.push_back(serial.keygen(rng));
  constexpr std::size_t kThreads = 4;
  const std::uint64_t inputs = inputs_past_the_bound(group);
  // Thread t evaluates input i under key key_of(t, i): 8 keys per thread.
  auto key_of = [&](std::size_t t, std::uint64_t i) -> const VrfKeyPair& {
    return keys[t * 8 + i % 8];
  };
  std::vector<std::vector<VrfOutput>> want(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::uint64_t i = 0; i < inputs; ++i)
      want[t].push_back(serial.eval(key_of(t, i).sk, bytes_of_u64(i)));

  const DdhVrf shared{group};
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts a quarter further along the same inputs.
      for (std::uint64_t j = 0; j < inputs; ++j) {
        const std::uint64_t i = (j + t * inputs / kThreads) % inputs;
        const Bytes input = bytes_of_u64(i);
        const VrfOutput out = shared.eval(key_of(t, i).sk, input);
        if (out.proof != want[t][i].proof || out.value != want[t][i].value)
          ++mismatches[t];
        // Verify another thread's key, so verifies race evals too.
        const std::size_t o = (t + 1) % kThreads;
        if (!shared.verify(key_of(o, i).pk, input, want[o][i]))
          ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(DdhVrfHelpers, ValueAsU64AndUnitDouble) {
  Bytes v(32, 0);
  v[0] = 0x80;
  EXPECT_EQ(vrf_value_as_u64(v), 0x8000000000000000ULL);
  double d = vrf_value_as_unit_double(v);
  EXPECT_GE(d, 0.0);
  EXPECT_LT(d, 1.0);
  EXPECT_NEAR(d, 0.5, 1e-9);
}

}  // namespace
}  // namespace coincidence::crypto
