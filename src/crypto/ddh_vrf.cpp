#include "crypto/ddh_vrf.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/errors.h"
#include "common/ser.h"
#include "crypto/hmac.h"

namespace coincidence::crypto {

namespace {

// Width of the Fiat–Shamir challenge, and so of every pk^c exponent.
constexpr std::size_t kChallengeBits = 128;
// Charged per cache entry on top of its key and its tables.
constexpr std::size_t kEntryOverhead = 64;

constexpr std::uint8_t kH2Tag[] = {'h', '2'};
constexpr std::uint8_t kH3Tag[] = {'h', '3'};

// Hashes `data` as Writer::blob would write it: a u32 big-endian length,
// then the bytes.
void hash_blob(Sha256& hash, BytesView data) {
  const auto n = static_cast<std::uint32_t>(data.size());
  const std::uint8_t len[4] = {
      static_cast<std::uint8_t>(n >> 24), static_cast<std::uint8_t>(n >> 16),
      static_cast<std::uint8_t>(n >> 8), static_cast<std::uint8_t>(n)};
  hash.update(BytesView(len, sizeof len));
  hash.update(data);
}

// y = H2(Γ) from Γ's encoding.
Digest output_of(BytesView gamma) {
  Sha256 hash;
  hash.update(kH2Tag);
  hash.update(gamma);
  return hash.finish();
}

}  // namespace

template <class V>
std::shared_ptr<const V> DdhVrf::Cache<V>::find(BytesView key) const {
  const std::string_view k(reinterpret_cast<const char*>(key.data()),
                           key.size());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(k);
  return it == map_.end() ? nullptr : it->second;
}

template <class V>
std::shared_ptr<const V> DdhVrf::Cache<V>::insert(
    BytesView key, std::shared_ptr<const V> value, std::size_t bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] = map_.try_emplace(std::string(key.begin(), key.end()),
                                      std::move(value));
  if (fresh) {
    order_.push_back({it->first, bytes});
    bytes_ += bytes;
    while (bytes_ > budget_ && order_.size() > 1) {
      map_.erase(order_.front().key);
      bytes_ -= order_.front().bytes;
      order_.pop_front();
    }
  }
  return it->second;
}

/// h = H1(input), its encoding and its comb table.
struct DdhVrf::InputState {
  CombTable comb;  // base() is h
  Bytes encoded;
};

/// A public key as received: its value, whether it is a group element,
/// and for members its encoding and the comb table for pk^c.
struct DdhVrf::KeyState {
  Bignum pk;
  bool member = false;
  Bytes encoded;

  /// pk^c on a table built at the first call, so a key that only enters
  /// batch folds, where pk is a multi-exp base, never builds one.
  Bignum exp(const PrimeGroup& group, const Bignum& c) const {
    std::call_once(built_,
                   [&] { comb_.emplace(group.comb(pk, kChallengeBits)); });
    return comb_->exp(c);
  }

 private:
  mutable std::once_flag built_;
  mutable std::optional<CombTable> comb_;
};

/// One proof, parsed and checked up to its two group equations, with the
/// recomputed challenge and (for multi-entry batches) the 128-bit
/// combiner scalars.
struct DdhVrf::ParsedEntry {
  std::shared_ptr<const KeyState> key;
  std::shared_ptr<const InputState> in;
  Bignum gamma, a, b, s;
  Bignum c;
  Bignum z, w;  // set when the batch has ≥ 2 live entries
};

DdhVrf::DdhVrf(PrimeGroup group)
    : group_(std::move(group)), q_minus_1_(group_.q() - Bignum(1)) {
  challenge_prefix_.update(kH3Tag);
  hash_blob(challenge_prefix_, group_.encode(group_.g()));
  key_table_bytes_ = (std::size_t{1} << CombTable::kTeeth) *
                     group_.mont().kernel_width() * sizeof(std::uint64_t);
}

std::shared_ptr<const DdhVrf::InputState> DdhVrf::input_state(
    BytesView input) const {
  if (auto hit = inputs_.find(input)) return hit;
  // Built outside the lock; two threads missing on one input both build
  // it, and the first insert wins. The states are equal either way.
  const Bignum h = group_.hash_to_group(input);
  auto built = std::make_shared<const InputState>(
      InputState{group_.comb(h), group_.encode(h)});
  const std::size_t bytes = built->comb.table_bytes() +
                            built->encoded.size() + input.size() +
                            kEntryOverhead;
  return inputs_.insert(input, std::move(built), bytes);
}

std::shared_ptr<const DdhVrf::KeyState> DdhVrf::key_state(
    BytesView pk) const {
  if (auto hit = keys_.find(pk)) return hit;
  auto built = std::make_shared<KeyState>();
  built->pk = Bignum::from_bytes_be(pk);
  built->member = group_.is_element(built->pk);
  std::size_t bytes = pk.size() + kEntryOverhead;
  if (built->member) {
    built->encoded = group_.encode(built->pk);
    bytes += built->encoded.size() + key_table_bytes_;
  }
  return keys_.insert(pk, std::move(built), bytes);
}

std::shared_ptr<const Bytes> DdhVrf::public_key_of(BytesView sk_bytes,
                                                   const Bignum& sk) const {
  // Keyed by a digest, so the cache holds no secret-key bytes and its
  // compares never read them.
  const Digest id = sha256(sk_bytes);
  const BytesView key(id.data(), id.size());
  if (auto hit = pks_of_sk_.find(key)) return hit;
  auto pk = std::make_shared<const Bytes>(group_.encode(group_.exp_g(sk)));
  const std::size_t bytes = key.size() + pk->size() + kEntryOverhead;
  return pks_of_sk_.insert(key, std::move(pk), bytes);
}

VrfKeyPair DdhVrf::keygen(Rng& rng) const {
  // sk uniform in [1, q): rejection-free via mod, bias negligible for the
  // >=128-bit groups used outside the unit tests.
  Bytes seed = rng.next_bytes(group_.byte_len() + 16);
  Bignum sk = Bignum::from_bytes_be(seed) % q_minus_1_;
  sk = sk + Bignum(1);
  VrfKeyPair kp{sk.to_bytes_be(group_.byte_len()), {}};
  kp.pk = *public_key_of(kp.sk, sk);
  return kp;
}

Bignum DdhVrf::challenge(BytesView h, BytesView pk, BytesView gamma,
                         BytesView a, BytesView b) const {
  // H3 over "h3" and the blobs of g, h, pk, Γ, a and b; the prefix up to
  // g's blob is hashed once per instance.
  Sha256 hash = challenge_prefix_;
  for (BytesView part : {h, pk, gamma, a, b}) hash_blob(hash, part);
  const Digest d = hash.finish();
  // 128-bit Fiat–Shamir challenge (ECVRF-style truncation): 2⁻¹²⁸
  // soundness, and short enough that the batch combination's per-entry
  // exponents zᵢcᵢ stay ≤ 256 bits. The tiny unit-test groups have
  // q < 2¹²⁸, hence the reduction.
  Bignum c = Bignum::from_bytes_be(BytesView(d.data(), kChallengeBits / 8));
  if (c >= group_.q()) c = c % group_.q();
  return c;
}

VrfOutput DdhVrf::eval(BytesView sk_bytes, BytesView input) const {
  const Bignum sk = Bignum::from_bytes_be(sk_bytes);
  COIN_REQUIRE(!sk.is_zero() && sk < group_.q(), "DdhVrf: bad secret key");

  const std::shared_ptr<const InputState> in = input_state(input);

  // Deterministic nonce bound to (sk, input) — RFC 6979 flavour.
  HmacDrbg drbg(concat({bytes_of("nonce"), sk_bytes, input}));
  const Bignum k =
      Bignum::from_bytes_be(drbg.generate(group_.byte_len() + 8)) %
          q_minus_1_ +
      Bignum(1);

  // Γ = h^sk and b = h^k share one walk over h's table.
  const auto [gamma, b] = in->comb.exp2(sk, k);
  const Bignum a = group_.exp_g(k);
  const Bytes gamma_enc = group_.encode(gamma);
  const Bytes a_enc = group_.encode(a);
  const Bytes b_enc = group_.encode(b);
  const Bignum c = challenge(in->encoded, *public_key_of(sk_bytes, sk),
                             gamma_enc, a_enc, b_enc);
  // s = k - c*sk mod q (k < q already)
  const Bignum s =
      Bignum::sub_mod(k, Bignum::mul_mod(c, sk, group_.q()), group_.q());

  // The proof ships the commitments (Γ, a, b, s) — not the compressed
  // (Γ, c, s) — so verifiers can fold many proofs into one random linear
  // combination (see batch_verify).
  const Digest y = output_of(gamma_enc);
  Writer proof;
  proof.blob(gamma_enc).blob(a_enc).blob(b_enc).blob(
      s.to_bytes_be(group_.byte_len()));
  return {Bytes(y.begin(), y.end()), proof.take()};
}

bool DdhVrf::verify(BytesView pk_bytes, BytesView input,
                    const VrfOutput& out) const {
  return verify(pk_bytes, input, BytesView(out.value), BytesView(out.proof));
}

bool DdhVrf::verify(BytesView pk_bytes, BytesView input, BytesView value,
                    BytesView proof) const {
  ParsedEntry p;
  return parse(pk_bytes, input, value, proof, p) && dleq_holds(p);
}

bool DdhVrf::parse(BytesView pk, BytesView input, BytesView value,
                   BytesView proof, ParsedEntry& p) const {
  BytesView blobs[3];
  try {
    Reader r(proof);
    for (BytesView& blob : blobs) blob = r.blob_view();
    p.s = Bignum::from_bytes_be(r.blob_view());
    r.done();
  } catch (const CodecError&) {
    return false;
  }
  if (p.s >= group_.q()) return false;
  p.key = key_state(pk);
  if (!p.key->member) return false;
  // The subgroup checks close the order-2 escape hatch of the safe-prime
  // setting; for a batch fold they are load-bearing, since a random
  // combination would catch a Z₂ component only with probability 1/2.
  Bignum* elements[3] = {&p.gamma, &p.a, &p.b};
  Bytes canonical[3];
  for (std::size_t i = 0; i < 3; ++i) {
    *elements[i] = Bignum::from_bytes_be(blobs[i]);
    if (!group_.is_element(*elements[i])) return false;
    // Hashes take the group encoding, which a blob of the group's width
    // already is.
    if (blobs[i].size() != group_.byte_len()) {
      canonical[i] = group_.encode(*elements[i]);
      blobs[i] = canonical[i];
    }
  }
  const Digest y = output_of(blobs[0]);
  if (!ct_equal(BytesView(y.data(), y.size()), value)) return false;
  p.in = input_state(input);
  p.c = challenge(p.in->encoded, p.key->encoded, blobs[0], blobs[1],
                  blobs[2]);
  return true;
}

bool DdhVrf::dleq_holds(const ParsedEntry& p) const {
  // The full-width s runs on the fixed-base tables of g and h, the
  // 128-bit c on pk's table and on a short ladder for Γ.
  return group_.mul(group_.exp_g(p.s), p.key->exp(group_, p.c)) ==
             p.a &&
         group_.mul(p.in->comb.exp(p.s), group_.exp(p.gamma, p.c)) == p.b;
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
  // (h table, Σ wᵢsᵢ) per distinct input, in first-seen order.
  std::vector<std::pair<const CombTable*, Bignum>> by_input;
  for (std::size_t i : subset) {
    const ParsedEntry& e = parsed[i];
    lhs.push_back({e.a, e.z});
    lhs.push_back({e.b, e.w});
    rhs.push_back({e.key->pk, Bignum::mul_mod(e.z, e.c, q)});
    rhs.push_back({e.gamma, Bignum::mul_mod(e.w, e.c, q)});
    sum_zs = Bignum::add_mod(sum_zs, Bignum::mul_mod(e.z, e.s, q), q);
    auto it = std::find_if(by_input.begin(), by_input.end(), [&](auto& hw) {
      return hw.first == &e.in->comb;
    });
    if (it == by_input.end())
      it = by_input.insert(by_input.end(), {&e.in->comb, Bignum()});
    it->second = Bignum::add_mod(it->second, Bignum::mul_mod(e.w, e.s, q), q);
  }
  Bignum left = group_.multi_exp(lhs);
  Bignum right = group_.multi_exp(rhs);
  right = group_.mul(right, group_.exp_g(sum_zs));
  for (const auto& [h_comb, exp] : by_input)
    right = group_.mul(right, h_comb->exp(exp));
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
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const VrfBatchEntry& e = entries[i];
    if (parse(e.pk, e.input, e.value, e.proof, parsed[i])) live.push_back(i);
  }
  if (live.empty()) return;
  auto check_single = [&](std::size_t i) -> char {
    return dleq_holds(parsed[i]) ? 1 : 0;
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
