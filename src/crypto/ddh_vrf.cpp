#include "crypto/ddh_vrf.h"

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/errors.h"
#include "common/ser.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace coincidence::crypto {

/// Batch-verification working state for one proof: the parsed group
/// elements, the recomputed challenge, and (for multi-entry batches) the
/// 128-bit combiner scalars.
struct DdhVrf::ParsedEntry {
  Bignum pk, gamma, a, b, s;
  Bignum c;                           // recomputed 128-bit challenge
  const CombTable* h_comb = nullptr;  // comb table of h = H1(input)
  Bignum z, w;  // combiner scalars (set when the batch has ≥ 2)
  std::size_t input_id = 0;  // dense id over the batch's distinct inputs
};

DdhVrf::DdhVrf(PrimeGroup group) : group_(std::move(group)) {}

std::shared_ptr<const CombTable> DdhVrf::input_table(BytesView input) const {
  const std::string_view key(reinterpret_cast<const char*>(input.data()),
                             input.size());
  {
    std::lock_guard<std::mutex> lock(bases_mu_);
    if (auto it = bases_.find(key); it != bases_.end()) return it->second;
  }
  // Built outside the lock; two threads missing on one input both build
  // it, and the first insert wins. The tables are equal either way.
  auto built = std::make_shared<const CombTable>(
      group_.comb(group_.hash_to_group(input)));
  std::lock_guard<std::mutex> lock(bases_mu_);
  auto [it, fresh] = bases_.try_emplace(std::string(key), built);
  if (fresh) {
    bases_order_.push_back(it->first);
    if (bases_order_.size() > kCachedInputs) {
      bases_.erase(bases_order_.front());
      bases_order_.pop_front();
    }
  }
  return it->second;
}

VrfKeyPair DdhVrf::keygen(Rng& rng) const {
  // sk uniform in [1, q): rejection-free via mod, bias negligible for the
  // >=128-bit groups used outside the unit tests.
  Bytes seed = rng.next_bytes(group_.byte_len() + 16);
  Bignum sk = Bignum::from_bytes_be(seed) % (group_.q() - Bignum(1));
  sk = sk + Bignum(1);
  Bignum pk = group_.exp_g(sk);
  return {sk.to_bytes_be(group_.byte_len()), group_.encode(pk)};
}

Bignum DdhVrf::challenge(const Bignum& h, const Bignum& pk,
                         const Bignum& gamma, const Bignum& a,
                         const Bignum& b) const {
  Writer w;
  w.blob(group_.encode(group_.g()))
      .blob(group_.encode(h))
      .blob(group_.encode(pk))
      .blob(group_.encode(gamma))
      .blob(group_.encode(a))
      .blob(group_.encode(b));
  // 128-bit Fiat–Shamir challenge (ECVRF-style truncation): 2⁻¹²⁸
  // soundness, and short enough that the batch combination's per-entry
  // exponents zᵢcᵢ stay ≤ 256 bits. The tiny unit-test groups have
  // q < 2¹²⁸, hence the reduction.
  Digest d = sha256(concat({bytes_of("h3"), BytesView(w.bytes())}));
  Bignum c = Bignum::from_bytes_be(BytesView(d.data(), 16));
  if (c >= group_.q()) c = c % group_.q();
  return c;
}

VrfOutput DdhVrf::eval(BytesView sk_bytes, BytesView input) const {
  Bignum sk = Bignum::from_bytes_be(sk_bytes);
  COIN_REQUIRE(!sk.is_zero() && sk < group_.q(), "DdhVrf: bad secret key");

  const std::shared_ptr<const CombTable> h_comb = input_table(input);
  const Bignum& h = h_comb->base();
  Bignum gamma = h_comb->exp(sk);

  // Deterministic nonce bound to (sk, input) — RFC 6979 flavour.
  Bytes nonce_seed = concat({bytes_of("nonce"), BytesView(sk_bytes), input});
  HmacDrbg drbg(nonce_seed);
  Bignum k = Bignum::from_bytes_be(drbg.generate(group_.byte_len() + 8)) %
             (group_.q() - Bignum(1));
  k = k + Bignum(1);

  Bignum a = group_.exp_g(k);
  Bignum b = h_comb->exp(k);
  Bignum pk = group_.exp_g(sk);
  Bignum c = challenge(h, pk, gamma, a, b);
  // s = k - c*sk mod q
  Bignum s = Bignum::sub_mod(k % group_.q(),
                             Bignum::mul_mod(c, sk, group_.q()), group_.q());

  Bytes y = sha256_bytes(concat({bytes_of("h2"), group_.encode(gamma)}));

  // The proof ships the commitments (Γ, a, b, s) — not the compressed
  // (Γ, c, s) — so verifiers can fold many proofs into one random linear
  // combination (see batch_verify).
  Writer proof;
  proof.blob(group_.encode(gamma))
      .blob(group_.encode(a))
      .blob(group_.encode(b))
      .blob(s.to_bytes_be(group_.byte_len()));
  return {y, proof.take()};
}

bool DdhVrf::verify(BytesView pk_bytes, BytesView input,
                    const VrfOutput& out) const {
  return verify(pk_bytes, input, BytesView(out.value), BytesView(out.proof));
}

bool DdhVrf::verify(BytesView pk_bytes, BytesView input, BytesView value,
                    BytesView proof) const {
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

  Bignum pk = Bignum::from_bytes_be(pk_bytes);
  if (!group_.is_element(pk) || !group_.is_element(gamma) ||
      !group_.is_element(a) || !group_.is_element(b))
    return false;
  if (s >= group_.q()) return false;

  const std::shared_ptr<const CombTable> h_comb = input_table(input);
  Bignum c = challenge(h_comb->base(), pk, gamma, a, b);
  if (!dleq_holds(*h_comb, pk, gamma, a, b, s, c)) return false;

  Bytes y = sha256_bytes(concat({bytes_of("h2"), group_.encode(gamma)}));
  return ct_equal(y, value);
}

bool DdhVrf::dleq_holds(const CombTable& h_comb, const Bignum& pk,
                        const Bignum& gamma, const Bignum& a,
                        const Bignum& b, const Bignum& s,
                        const Bignum& c) const {
  // The full-width s runs on the fixed-base tables of g and h, the
  // 128-bit c on a short ladder of its own.
  return group_.mul(group_.exp_g(s), group_.exp(pk, c)) == a &&
         group_.mul(h_comb.exp(s), group_.exp(gamma, c)) == b;
}

bool DdhVrf::check_subset(const std::vector<ParsedEntry>& parsed,
                          const std::vector<std::size_t>& subset) const {
  const Bignum& q = group_.q();
  // LHS: Π aᵢ^zᵢ · bᵢ^wᵢ — exponents ≤ 128 bits.
  // RHS: Π pkᵢ^(zᵢcᵢ) · Γᵢ^(wᵢcᵢ) — exponents ≤ 256 bits — times the
  // full-width residual folded onto the FIXED bases: g^(Σzᵢsᵢ) and, per
  // distinct input, H1(x)^(Σwᵢsᵢ), each on its comb table. Keeping the
  // full-width exponents off the Pippenger terms is what keeps the
  // shared squaring chains short.
  std::vector<MultiExpTerm> lhs, rhs;
  lhs.reserve(2 * subset.size());
  rhs.reserve(2 * subset.size());
  Bignum sum_zs;
  // input_id → (h table, Σ wᵢsᵢ); std::map for a deterministic fold order.
  std::map<std::size_t, std::pair<const CombTable*, Bignum>> by_input;
  for (std::size_t i : subset) {
    const ParsedEntry& e = parsed[i];
    lhs.push_back({e.a, e.z});
    lhs.push_back({e.b, e.w});
    rhs.push_back({e.pk, Bignum::mul_mod(e.z, e.c, q)});
    rhs.push_back({e.gamma, Bignum::mul_mod(e.w, e.c, q)});
    sum_zs = Bignum::add_mod(sum_zs, Bignum::mul_mod(e.z, e.s, q), q);
    auto [it, fresh] = by_input.try_emplace(e.input_id, e.h_comb, Bignum());
    it->second.second =
        Bignum::add_mod(it->second.second, Bignum::mul_mod(e.w, e.s, q), q);
  }
  Bignum left = group_.multi_exp(lhs);
  Bignum right = group_.multi_exp(rhs);
  right = group_.mul(right, group_.exp_g(sum_zs));
  for (const auto& [id, hw] : by_input)
    right = group_.mul(right, hw.first->exp(hw.second));
  return left == right;
}

void DdhVrf::batch_verify(std::span<const VrfBatchEntry> entries,
                          std::vector<char>& out) const {
  out.assign(entries.size(), 0);
  if (entries.empty()) return;

  // Structural pass: parse, subgroup-check and y-bind every entry exactly
  // as verify() does. Entries failing here are rejected outright and
  // never enter the combination (a non-element could defeat it: a stray
  // order-2 component survives a random combination with probability
  // 1/2). `live` keeps batch order, so scalar derivation is order-stable.
  std::vector<ParsedEntry> parsed(entries.size());
  std::vector<std::size_t> live;
  live.reserve(entries.size());
  std::unordered_map<std::string, std::size_t> input_ids;
  std::vector<std::shared_ptr<const CombTable>> h_combs;  // by input id
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const VrfBatchEntry& e = entries[i];
    ParsedEntry& p = parsed[i];
    try {
      Reader r(e.proof);
      p.gamma = Bignum::from_bytes_be(r.blob_view());
      p.a = Bignum::from_bytes_be(r.blob_view());
      p.b = Bignum::from_bytes_be(r.blob_view());
      p.s = Bignum::from_bytes_be(r.blob_view());
      r.done();
    } catch (const CodecError&) {
      continue;
    }
    p.pk = Bignum::from_bytes_be(e.pk);
    if (!group_.is_element(p.pk) || !group_.is_element(p.gamma) ||
        !group_.is_element(p.a) || !group_.is_element(p.b))
      continue;
    if (p.s >= group_.q()) continue;
    Bytes y = sha256_bytes(concat({bytes_of("h2"), group_.encode(p.gamma)}));
    if (!ct_equal(y, e.value)) continue;

    std::string key(e.input.begin(), e.input.end());
    auto [it, fresh] = input_ids.emplace(std::move(key), h_combs.size());
    if (fresh) h_combs.push_back(input_table(e.input));
    p.input_id = it->second;
    p.h_comb = h_combs[it->second].get();
    p.c = challenge(p.h_comb->base(), p.pk, p.gamma, p.a, p.b);
    live.push_back(i);
  }
  if (live.empty()) return;
  auto check_single = [&](std::size_t i) -> char {
    const ParsedEntry& p = parsed[i];
    return dleq_holds(*p.h_comb, p.pk, p.gamma, p.a, p.b, p.s, p.c) ? 1 : 0;
  };
  if (live.size() == 1) {
    out[live[0]] = check_single(live[0]);
    return;
  }

  // Combiner scalars: content-addressed — seeded from the session's
  // batch seed plus a hash of every surviving entry's bytes — so a
  // replayed run (at any thread count) derives the identical zᵢ, wᵢ. The
  // scalars are independent per entry; sharing one scalar between the
  // two equations would let an adversary cancel forged terms across
  // them.
  Writer transcript;
  for (std::size_t i : live)
    transcript.blob(entries[i].pk)
        .blob(entries[i].input)
        .blob(entries[i].value)
        .blob(entries[i].proof);
  HmacDrbg drbg(concat({bytes_of("batch-dleq"), bytes_of_u64(batch_seed_),
                        sha256_bytes(transcript.bytes())}));
  for (std::size_t i : live) {
    ParsedEntry& p = parsed[i];
    p.z = Bignum::from_bytes_be(drbg.generate(16)) % group_.q();
    if (p.z.is_zero()) p.z = Bignum(1);
    p.w = Bignum::from_bytes_be(drbg.generate(16)) % group_.q();
    if (p.w.is_zero()) p.w = Bignum(1);
  }

  if (check_subset(parsed, live)) {
    for (std::size_t i : live) out[i] = 1;
    return;
  }

  // Binary-split attribution: a failing subset splits in half and each
  // half re-checks, isolating the bad entries in O(bad·log k) subset
  // multi-exps. Singletons are decided by the exact per-proof equations,
  // so the final verdicts match verify() bit-for-bit.
  std::function<void(const std::vector<std::size_t>&)> attribute =
      [&](const std::vector<std::size_t>& subset) {
        std::size_t mid = subset.size() / 2;
        std::vector<std::size_t> halves[2] = {
            {subset.begin(), subset.begin() + mid},
            {subset.begin() + mid, subset.end()}};
        for (const std::vector<std::size_t>& half : halves) {
          if (half.size() == 1) {
            out[half[0]] = check_single(half[0]);
          } else if (check_subset(parsed, half)) {
            for (std::size_t i : half) out[i] = 1;
          } else {
            attribute(half);
          }
        }
      };
  attribute(live);
}

}  // namespace coincidence::crypto
