// The prime-order group underlying the DDH VRF.
//
// For a safe prime p = 2q + 1 the quadratic residues of Z_p* form a
// subgroup of prime order q; g = 4 = 2^2 is always a quadratic residue and
// (being != 1) generates it. Hashing into the group is exact: square a
// pseudorandom field element. This gives a textbook DDH-hard group with
// honest hash-to-group — the standard setting for the Chaum–Pedersen DLEQ
// proof used by the VRF.
//
// Every modular operation rides the Montgomery fast path: the group owns
// one immutable MontgomeryCtx for p (shared by copies) and a fixed-base
// comb table for the generator g, and builds comb tables for any other
// base a caller exponentiates often (comb()). Membership testing uses the
// Jacobi symbol (exact for the QR subgroup of a safe prime) instead of a
// full x^q ladder.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytes.h"
#include "crypto/bignum.h"

namespace coincidence::crypto {

class PrimeGroup {
 public:
  /// Builds the group from a safe prime. Verifies (probabilistically) that
  /// p and (p-1)/2 are prime; throws ConfigError otherwise.
  static PrimeGroup from_safe_prime(const Bignum& p);

  /// Deterministically generates a fresh safe-prime group of `bits` bits.
  static PrimeGroup generate(std::size_t bits, std::uint64_t seed);

  /// The RFC 2409 768-bit group (primality assumed, not re-verified, so
  /// construction is instant).
  static PrimeGroup rfc2409_768();

  /// The RFC 3526 1536-bit group (primality assumed, not re-verified, so
  /// construction is instant).
  static PrimeGroup rfc3526_1536();

  const Bignum& p() const { return p_; }
  const Bignum& q() const { return q_; }  // group order
  const Bignum& g() const { return g_; }  // generator of the QR subgroup

  /// g^e mod p, via the precomputed fixed-base comb table.
  Bignum exp_g(const Bignum& e) const;
  /// b^e mod p.
  Bignum exp(const Bignum& base, const Bignum& e) const;
  /// A fixed-base comb table for `base`, for exponents below p: each
  /// exponentiation then costs about a fifth of exp(base, ·), and the
  /// build about 1.4 exps.
  CombTable comb(const Bignum& base) const;
  /// The same for exponents of at most `max_exp_bits` bits.
  CombTable comb(const Bignum& base, std::size_t max_exp_bits) const;
  /// a^ea · b^eb mod p in a single shared-squaring ladder (Straus/Shamir):
  /// barely more than ONE exponentiation instead of two.
  Bignum dual_exp(const Bignum& a, const Bignum& ea, const Bignum& b,
                  const Bignum& eb) const;
  /// Π termᵢ.base ^ termᵢ.exp mod p — Pippenger bucket multi-exp (falls
  /// back to chained Straus ladders below ~8 terms). The engine of batch
  /// DLEQ verification: k proofs fold into two multi-exps over short
  /// (128/256-bit) exponents instead of 2k full-width dual ladders.
  Bignum multi_exp(std::span<const MultiExpTerm> terms) const {
    return ctx_->multi_exp(terms);
  }
  /// a*b mod p.
  Bignum mul(const Bignum& a, const Bignum& b) const;
  /// Multiplicative inverse mod p.
  Bignum inv(const Bignum& a) const;

  /// True iff x is a group element: 1 <= x < p and x^q == 1. Implemented
  /// as a Jacobi-symbol test (equivalent for the QR subgroup of a safe
  /// prime, and ~two orders of magnitude cheaper than the x^q ladder).
  bool is_element(const Bignum& x) const;

  /// Hash-to-group: expands `input` with HMAC-DRBG to a field element and
  /// squares it; retries (never observed beyond one retry) on 0/1.
  Bignum hash_to_group(BytesView input) const;

  /// Reduces a hash expansion of `input` into a scalar in [0, q).
  Bignum hash_to_scalar(BytesView input) const;

  /// Fixed-width big-endian encoding of a field element (byte_len() bytes).
  Bytes encode(const Bignum& x) const;
  std::size_t byte_len() const { return byte_len_; }

  /// The shared Montgomery context for p (never null).
  const MontgomeryCtx& mont() const { return *ctx_; }

 private:
  PrimeGroup(Bignum p, Bignum q, Bignum g);

  Bignum p_;
  Bignum q_;
  Bignum g_;
  std::size_t byte_len_ = 0;
  // Shared across copies: both are immutable once built.
  std::shared_ptr<const MontgomeryCtx> ctx_;
  std::shared_ptr<const CombTable> g_comb_;
  // Hoisted domain tags for the hash-to-group/scalar input paths.
  Bytes h2g_tag_;
  Bytes h2s_tag_;
};

}  // namespace coincidence::crypto
