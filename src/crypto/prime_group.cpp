#include "crypto/prime_group.h"

#include "common/errors.h"
#include "crypto/hmac.h"
#include "crypto/prime.h"

namespace coincidence::crypto {

PrimeGroup::PrimeGroup(Bignum p, Bignum q, Bignum g)
    : p_(std::move(p)), q_(std::move(q)), g_(std::move(g)) {
  byte_len_ = (p_.bit_length() + 7) / 8;
  ctx_ = std::make_shared<const MontgomeryCtx>(p_);
  // Scalars are < q < p, so p's bit length bounds every comb exponent.
  g_comb_ = std::make_shared<const CombTable>(ctx_, g_, p_.bit_length());
  h2g_tag_ = bytes_of("h2g");
  h2s_tag_ = bytes_of("h2s");
}

PrimeGroup PrimeGroup::from_safe_prime(const Bignum& p) {
  if (!p.is_odd() || p.bit_length() < 16)
    throw ConfigError("PrimeGroup: modulus too small or even");
  Bignum q = (p - Bignum(1)) >> 1;
  if (!is_probable_prime(p, 16) || !is_probable_prime(q, 16))
    throw ConfigError("PrimeGroup: p is not a safe prime");
  return PrimeGroup(p, q, Bignum(4));
}

PrimeGroup PrimeGroup::generate(std::size_t bits, std::uint64_t seed) {
  SafePrime sp = generate_safe_prime(bits, seed);
  return PrimeGroup(sp.p, sp.q, Bignum(4));
}

PrimeGroup PrimeGroup::rfc2409_768() {
  const Bignum& p = rfc2409_prime_768();
  Bignum q = (p - Bignum(1)) >> 1;
  return PrimeGroup(p, q, Bignum(4));
}

PrimeGroup PrimeGroup::rfc3526_1536() {
  const Bignum& p = rfc3526_prime_1536();
  Bignum q = (p - Bignum(1)) >> 1;
  return PrimeGroup(p, q, Bignum(4));
}

Bignum PrimeGroup::exp_g(const Bignum& e) const { return g_comb_->exp(e); }

Bignum PrimeGroup::exp(const Bignum& base, const Bignum& e) const {
  // Short exponents don't amortize the Montgomery ladder setup; the
  // reference path also covers them exactly.
  if (e.bit_length() <= 64) return Bignum::mod_exp_ref(base, e, p_);
  return ctx_->mod_exp(base, e);
}

CombTable PrimeGroup::comb(const Bignum& base) const {
  return comb(base, p_.bit_length());
}

CombTable PrimeGroup::comb(const Bignum& base,
                           std::size_t max_exp_bits) const {
  return CombTable(ctx_, base, max_exp_bits);
}

Bignum PrimeGroup::dual_exp(const Bignum& a, const Bignum& ea,
                            const Bignum& b, const Bignum& eb) const {
  return ctx_->dual_exp(a, ea, b, eb);
}

Bignum PrimeGroup::mul(const Bignum& a, const Bignum& b) const {
  return ctx_->mul(a, b);
}

Bignum PrimeGroup::inv(const Bignum& a) const {
  return Bignum::mod_inv(a, p_);
}

bool PrimeGroup::is_element(const Bignum& x) const {
  if (x.is_zero() || x >= p_) return false;
  // x^q == 1 iff ord(x) | q iff x is a quadratic residue (the group is
  // the order-q QR subgroup of Z_p*, p = 2q+1), iff (x/p) == +1.
  return Bignum::jacobi(x, p_) == 1;
}

Bignum PrimeGroup::hash_to_group(BytesView input) const {
  Bytes seed;
  seed.reserve(h2g_tag_.size() + input.size());
  append(seed, h2g_tag_);
  append(seed, input);
  HmacDrbg drbg(seed);
  Bytes buf;  // reused across retries — no fresh allocation per draw
  for (;;) {
    drbg.generate_into(byte_len_ + 8, buf);
    Bignum r = Bignum::from_bytes_be(buf) % p_;
    Bignum h = mul(r, r);  // squares are exactly the QR subgroup
    if (h != Bignum() && h != Bignum(1)) return h;
  }
}

Bignum PrimeGroup::hash_to_scalar(BytesView input) const {
  Bytes seed;
  seed.reserve(h2s_tag_.size() + input.size());
  append(seed, h2s_tag_);
  append(seed, input);
  HmacDrbg drbg(seed);
  Bytes buf;
  drbg.generate_into(byte_len_ + 8, buf);
  return Bignum::from_bytes_be(buf) % q_;
}

Bytes PrimeGroup::encode(const Bignum& x) const {
  return x.to_bytes_be(byte_len_);
}

}  // namespace coincidence::crypto
