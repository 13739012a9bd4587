// Batch verification equivalence suite: DdhVrf::batch_verify must accept
// and reject EXACTLY the entries per-proof verify() would — under honest
// batches, adversarial per-field mutations, and every mix in between —
// and its DRBG combiner must be deterministic across replays and thread
// counts. The BatchVerifier/VerifyMemo plumbing on top is covered here
// too, since its contract is the same bit-identity.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <vector>

#include "coin/verify_queue.h"
#include "common/errors.h"
#include "common/ser.h"
#include "crypto/ddh_vrf.h"
#include "crypto/fast_vrf.h"
#include "crypto/key_registry.h"
#include "crypto/verify_memo.h"

namespace coincidence::crypto {
namespace {

const DdhVrf& vrf() {
  static const DdhVrf v{PrimeGroup::generate(128, 11)};
  return v;
}

const std::vector<VrfKeyPair>& keys() {
  static const std::vector<VrfKeyPair> ks = [] {
    Rng rng(7);
    std::vector<VrfKeyPair> out;
    for (int i = 0; i < 8; ++i) out.push_back(vrf().keygen(rng));
    return out;
  }();
  return ks;
}

/// Owned storage for a batch: entries() views point into these vectors,
/// which never reallocate after construction.
struct Batch {
  std::vector<Bytes> pks, inputs, values, proofs;

  std::size_t size() const { return pks.size(); }

  void push_honest(std::size_t key_idx, BytesView input) {
    const VrfKeyPair& kp = keys()[key_idx % keys().size()];
    VrfOutput out = vrf().eval(kp.sk, input);
    pks.push_back(kp.pk);
    inputs.push_back(Bytes(input.begin(), input.end()));
    values.push_back(std::move(out.value));
    proofs.push_back(std::move(out.proof));
  }

  std::vector<VrfBatchEntry> entries() const {
    std::vector<VrfBatchEntry> es;
    es.reserve(size());
    for (std::size_t i = 0; i < size(); ++i)
      es.push_back(VrfBatchEntry{pks[i], inputs[i], values[i], proofs[i]});
    return es;
  }
};

Batch make_honest(std::size_t k, std::size_t distinct_inputs = 3,
                  std::uint64_t salt = 0) {
  Batch b;
  for (std::size_t i = 0; i < k; ++i) {
    Writer w;
    w.str("round").u64(salt * 1000 + i % distinct_inputs);
    b.push_honest(i, w.take());
  }
  return b;
}

/// The ground truth both paths must match.
std::vector<char> serial_verdicts(const std::vector<VrfBatchEntry>& es) {
  std::vector<char> out;
  for (const auto& e : es)
    out.push_back(vrf().verify(e.pk, e.input, e.value, e.proof) ? 1 : 0);
  return out;
}

void expect_batch_matches_serial(const Batch& b) {
  auto es = b.entries();
  std::vector<char> got;
  vrf().batch_verify(es, got);
  EXPECT_EQ(got, serial_verdicts(es));
}

/// Re-encodes `proof` with blob `which` (0=Γ, 1=a, 2=b, 3=s) mutated by
/// `mutate`. Exercises each field of the DLEQ transcript individually.
Bytes mutate_proof_blob(const Bytes& proof, int which,
                        const std::function<void(Bytes&)>& mutate) {
  // A proof an earlier fuzz mutation already destroyed may no longer
  // parse; any unparseable bytes are as forged as it gets, keep them.
  try {
    Reader r(proof);
    std::vector<Bytes> blobs;
    for (int i = 0; i < 4; ++i) blobs.push_back(r.blob());
    mutate(blobs[static_cast<std::size_t>(which)]);
    Writer w;
    for (const Bytes& blob : blobs) w.blob(blob);
    return w.take();
  } catch (const CodecError&) {
    return proof;
  }
}

TEST(BatchVerify, AllHonestAccepted) {
  Batch b = make_honest(20);
  auto es = b.entries();
  std::vector<char> got;
  vrf().batch_verify(es, got);
  ASSERT_EQ(got.size(), es.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], 1) << i;
}

TEST(BatchVerify, EmptyAndSingletonBatches) {
  std::vector<VrfBatchEntry> none;
  std::vector<char> got;
  vrf().batch_verify(none, got);
  EXPECT_TRUE(got.empty());

  Batch one = make_honest(1);
  expect_batch_matches_serial(one);
}

TEST(BatchVerify, SingleBadEntryIsolated) {
  for (std::size_t bad : {std::size_t{0}, std::size_t{7}, std::size_t{15}}) {
    Batch b = make_honest(16);
    b.proofs[bad] = mutate_proof_blob(b.proofs[bad], 3,
                                      [](Bytes& s) { s.back() ^= 0x01; });
    auto es = b.entries();
    std::vector<char> got;
    vrf().batch_verify(es, got);
    for (std::size_t i = 0; i < es.size(); ++i)
      EXPECT_EQ(got[i], i == bad ? 0 : 1) << "bad=" << bad << " i=" << i;
  }
}

TEST(BatchVerify, PerFieldMutationsMatchSerial) {
  // Each DLEQ field forged individually, plus value/pk/input tampering:
  // the batch must reject exactly what verify() rejects, whatever the
  // failure mode (structural parse, subgroup check, equation, H2 bind).
  using Mutator = std::function<void(Batch&, std::size_t)>;
  const std::vector<Mutator> mutators = {
      [](Batch& b, std::size_t i) {  // Γ forged
        b.proofs[i] = mutate_proof_blob(b.proofs[i], 0,
                                        [](Bytes& g) { g[0] ^= 0x02; });
      },
      [](Batch& b, std::size_t i) {  // a forged
        b.proofs[i] = mutate_proof_blob(b.proofs[i], 1,
                                        [](Bytes& a) { a.back() ^= 0x10; });
      },
      [](Batch& b, std::size_t i) {  // b forged
        b.proofs[i] = mutate_proof_blob(b.proofs[i], 2,
                                        [](Bytes& v) { v.back() ^= 0x10; });
      },
      [](Batch& b, std::size_t i) {  // s forged
        b.proofs[i] = mutate_proof_blob(b.proofs[i], 3,
                                        [](Bytes& s) { s[0] ^= 0x01; });
      },
      [](Batch& b, std::size_t i) { b.values[i][3] ^= 0xff; },  // y forged
      [](Batch& b, std::size_t i) {  // wrong pk (valid group element)
        b.pks[i] = keys()[(i + 1) % keys().size()].pk;
      },
      [](Batch& b, std::size_t i) {  // wrong input
        b.inputs[i].push_back(0x42);
      },
      [](Batch& b, std::size_t i) {  // truncated proof (parse failure)
        b.proofs[i].resize(b.proofs[i].size() / 2);
      },
      [](Batch& b, std::size_t i) {  // garbage proof
        b.proofs[i] = bytes_of("not a proof");
      },
  };
  for (std::size_t m = 0; m < mutators.size(); ++m) {
    Batch b = make_honest(8, 2, /*salt=*/m);
    mutators[m](b, 3);
    SCOPED_TRACE("mutator " + std::to_string(m));
    expect_batch_matches_serial(b);
  }
}

TEST(BatchVerify, FuzzRandomMutationMixesMatchSerial) {
  // Randomized sweep: batch sizes 1..24, 0..k bad entries, random
  // mutation kind per bad entry. Equivalence must hold bit-for-bit.
  Rng rng(404);
  for (int iter = 0; iter < 25; ++iter) {
    const std::size_t k = 1 + rng.next_below(24);
    Batch b = make_honest(k, 1 + rng.next_below(4),
                          /*salt=*/static_cast<std::uint64_t>(iter) + 100);
    const std::size_t bad = rng.next_below(k + 1);
    for (std::size_t j = 0; j < bad; ++j) {
      const std::size_t i = rng.next_below(k);
      switch (rng.next_below(5)) {
        case 0:
          b.proofs[i] = mutate_proof_blob(
              b.proofs[i], static_cast<int>(rng.next_below(4)),
              [&](Bytes& f) { f[rng.next_below(f.size())] ^= 0x04; });
          break;
        case 1: b.values[i][rng.next_below(b.values[i].size())] ^= 0x20; break;
        case 2: b.pks[i] = keys()[rng.next_below(keys().size())].pk; break;
        case 3: b.inputs[i].push_back(static_cast<std::uint8_t>(iter)); break;
        default: b.proofs[i].clear(); break;
      }
    }
    SCOPED_TRACE("iter " + std::to_string(iter));
    expect_batch_matches_serial(b);
  }
}

TEST(BatchVerify, AttributionHandlesAllBadAndAlternating) {
  Batch all_bad = make_honest(16);
  for (std::size_t i = 0; i < all_bad.size(); ++i)
    all_bad.values[i][0] ^= 0x01;
  expect_batch_matches_serial(all_bad);

  Batch alternating = make_honest(17, 2, /*salt=*/9);
  for (std::size_t i = 0; i < alternating.size(); i += 2)
    alternating.proofs[i] = mutate_proof_blob(
        alternating.proofs[i], 3, [](Bytes& s) { s[1] ^= 0x08; });
  expect_batch_matches_serial(alternating);
}

TEST(BatchVerify, DeterministicAcrossReplaysAndSeeds) {
  Batch b = make_honest(12);
  b.values[5][0] ^= 0x01;
  auto es = b.entries();
  std::vector<char> first, second;
  vrf().batch_verify(es, first);
  vrf().batch_verify(es, second);
  EXPECT_EQ(first, second);

  // A different session seed draws different combiner scalars but must
  // reach the same verdicts — the scalars only randomize soundness.
  DdhVrf reseeded{vrf().group()};
  reseeded.set_batch_seed(0x5eed5eed5eed5eedULL);
  std::vector<char> other_seed;
  reseeded.batch_verify(es, other_seed);
  EXPECT_EQ(first, other_seed);
}

TEST(BatchVerify, FastVrfBatchMatchesSerial) {
  auto registry = KeyRegistry::create_for(6, 21);
  FastVrf fast(registry);
  std::vector<Bytes> inputs, values, proofs;
  std::vector<VrfBatchEntry> es;
  for (std::size_t i = 0; i < 6; ++i) {
    Writer w;
    w.str("fv").u64(i % 2);
    inputs.push_back(w.take());
  }
  for (std::size_t i = 0; i < 6; ++i) {
    VrfOutput out = fast.eval(registry->sk_of(static_cast<ProcessId>(i)),
                              inputs[i]);
    if (i == 4) out.value[0] ^= 0x01;  // one forgery
    values.push_back(std::move(out.value));
    proofs.push_back(std::move(out.proof));
  }
  for (std::size_t i = 0; i < 6; ++i)
    es.push_back(VrfBatchEntry{registry->pk_of(static_cast<ProcessId>(i)),
                               inputs[i], values[i], proofs[i]});
  std::vector<char> got;
  fast.batch_verify(es, got);
  for (std::size_t i = 0; i < es.size(); ++i) {
    EXPECT_EQ(got[i] != 0,
              fast.verify(es[i].pk, es[i].input, es[i].value, es[i].proof))
        << i;
  }
}

TEST(VerifyMemoTest, CachesPositiveAndNegativeVerdicts) {
  Batch b = make_honest(2);
  b.values[1][0] ^= 0x01;
  auto es = b.entries();

  VerifyMemo memo;
  EXPECT_FALSE(memo.lookup(es[0]).has_value());
  memo.store(es[0], true);
  memo.store(es[1], false);
  ASSERT_TRUE(memo.lookup(es[0]).has_value());
  EXPECT_TRUE(*memo.lookup(es[0]));
  ASSERT_TRUE(memo.lookup(es[1]).has_value());
  EXPECT_FALSE(*memo.lookup(es[1]));
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_GE(memo.hits(), 4u);   // the successful lookups above
  EXPECT_GE(memo.misses(), 1u); // the initial miss
}

TEST(BatchVerifierTest, FlushVerdictsMatchSerialVerification) {
  // One flush of 23 entries with two forgeries gives exactly the
  // per-entry verdicts of unbatched verification.
  Batch b = make_honest(23, 4);
  b.proofs[9] = mutate_proof_blob(b.proofs[9], 3,
                                  [](Bytes& s) { s[0] ^= 0x01; });
  b.values[17][0] ^= 0x01;
  auto es = b.entries();

  coin::BatchVerifier::Config cfg;
  cfg.vrf = std::make_shared<const DdhVrf>(vrf().group());
  coin::BatchVerifier bv(cfg);
  std::vector<char> out;
  const coin::BatchVerifier::FlushStats stats = bv.verify_shares(es, out);

  EXPECT_EQ(stats.rejects, 2u);
  EXPECT_EQ(out, serial_verdicts(es));
}

TEST(BatchVerifierTest, MemoAnswersRepeatFlushes) {
  Batch b = make_honest(6);
  b.values[2][0] ^= 0x01;
  auto es = b.entries();

  coin::BatchVerifier::Config cfg;
  cfg.vrf = std::make_shared<const DdhVrf>(vrf().group());
  coin::BatchVerifier bv(cfg);
  std::vector<char> first, second;
  coin::BatchVerifier::FlushStats s1 = bv.verify_shares(es, first);
  EXPECT_EQ(s1.memo_hits, 0u);
  // Same tuples again (a duplicate/replayed broadcast): all memo hits,
  // including the cached negative.
  coin::BatchVerifier::FlushStats s2 = bv.verify_shares(es, second);
  EXPECT_EQ(s2.memo_hits, es.size());
  EXPECT_EQ(first, second);
  EXPECT_EQ(bv.memo().size(), es.size());
}

}  // namespace
}  // namespace coincidence::crypto
