// Arbitrary-precision unsigned integers, from scratch.
//
// This backs the real (non-simulated) VRF: a DDH-VRF over the quadratic-
// residue subgroup of a safe prime (see prime_group.h / ddh_vrf.h).
// Little-endian 64-bit limbs, schoolbook multiplication with 128-bit
// intermediates, Knuth Algorithm D division, binary extended GCD inverse,
// and two modular-exponentiation paths: a division-based reference ladder
// (mod_exp_ref) kept for auditability and cross-checking, and a
// Montgomery-form fast path (MontgomeryCtx) that replaces the per-multiply
// divmod with word-level REDC on fixed-width, stack-resident operands —
// the difference between ~30 ms and a few ms per DDH-VRF verification at
// 1536 bits.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace coincidence::crypto {

class Bignum;
struct DivMod;
struct MultiExpTerm;
/// Knuth Algorithm D; throws PreconditionError on division by zero.
DivMod divmod(const Bignum& u, const Bignum& v);

class Bignum {
 public:
  /// Zero.
  Bignum() = default;
  /// From a machine word.
  Bignum(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal convenience

  /// Big-endian byte-string decoding (empty input = zero).
  static Bignum from_bytes_be(BytesView data);
  /// Hex decoding; accepts odd length and uppercase. Throws CodecError.
  static Bignum from_hex(std::string_view hex);

  /// Big-endian byte encoding, left-padded with zeros to at least
  /// `min_len` bytes (0 encodes as "" unless min_len > 0).
  Bytes to_bytes_be(std::size_t min_len = 0) const;
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  /// Value of bit i (i >= bit_length() reads as 0).
  bool bit(std::size_t i) const;
  /// Low 64 bits.
  std::uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  /// Three-way comparison: -1, 0, +1.
  static int compare(const Bignum& a, const Bignum& b);

  friend bool operator==(const Bignum& a, const Bignum& b) { return compare(a, b) == 0; }
  friend bool operator!=(const Bignum& a, const Bignum& b) { return compare(a, b) != 0; }
  friend bool operator<(const Bignum& a, const Bignum& b) { return compare(a, b) < 0; }
  friend bool operator<=(const Bignum& a, const Bignum& b) { return compare(a, b) <= 0; }
  friend bool operator>(const Bignum& a, const Bignum& b) { return compare(a, b) > 0; }
  friend bool operator>=(const Bignum& a, const Bignum& b) { return compare(a, b) >= 0; }

  Bignum operator+(const Bignum& rhs) const;
  /// Requires *this >= rhs (unsigned arithmetic); throws otherwise.
  Bignum operator-(const Bignum& rhs) const;
  Bignum operator*(const Bignum& rhs) const;
  Bignum operator/(const Bignum& rhs) const;
  Bignum operator%(const Bignum& rhs) const;
  Bignum operator<<(std::size_t bits) const;
  Bignum operator>>(std::size_t bits) const;

  /// (a + b) mod m, assuming a, b < m.
  static Bignum add_mod(const Bignum& a, const Bignum& b, const Bignum& m);
  /// (a - b) mod m, assuming a, b < m.
  static Bignum sub_mod(const Bignum& a, const Bignum& b, const Bignum& m);
  /// (a * b) mod m.
  static Bignum mul_mod(const Bignum& a, const Bignum& b, const Bignum& m);
  /// base^exp mod m (m > 0). 0^0 = 1 by convention. Dispatches to the
  /// Montgomery fast path for odd moduli of 2 to MontgomeryCtx::kMaxLimbs
  /// limbs with exponents past a machine word, and to mod_exp_ref
  /// otherwise; both return identical values.
  static Bignum mod_exp(const Bignum& base, const Bignum& exp, const Bignum& m);
  /// Division-based reference ladder (the original implementation). Kept
  /// as an independently-auditable oracle for the Montgomery path.
  static Bignum mod_exp_ref(const Bignum& base, const Bignum& exp,
                            const Bignum& m);
  /// Multiplicative inverse mod m; throws if gcd(a, m) != 1.
  static Bignum mod_inv(const Bignum& a, const Bignum& m);
  static Bignum gcd(Bignum a, Bignum b);

  /// Jacobi symbol (a/n) for odd n > 0: +1, -1, or 0. For prime n this is
  /// the Legendre symbol, so (a/p) == 1 iff a is a nonzero quadratic
  /// residue — an O(bits²) subgroup test that replaces a full mod_exp.
  /// A binary GCD that decides 30 steps at a time on 64-bit
  /// approximations (Pornin, IACR ePrint 2020/972), on stack limbs up to
  /// MontgomeryCtx::kMaxLimbs; a ≥ n costs one division first, a < n
  /// none.
  static int jacobi(const Bignum& a, const Bignum& n);

  /// Little-endian limbs, normalized (no trailing zero limb).
  const std::vector<std::uint64_t>& limbs() const { return limbs_; }
  /// From little-endian limbs (trailing zero limbs allowed).
  static Bignum from_limbs(std::span<const std::uint64_t> limbs);

  friend DivMod divmod(const Bignum& u, const Bignum& v);

 private:
  void normalize();

  std::vector<std::uint64_t> limbs_;  // little-endian, no trailing zero limbs
};

struct DivMod {
  Bignum quotient;
  Bignum remainder;
};

/// One term of a multi-exponentiation (see MontgomeryCtx::multi_exp).
struct MultiExpTerm {
  Bignum base;
  Bignum exp;
};

namespace detail {
class MontKernel;  // the fixed-width ladders behind a MontgomeryCtx
}

/// Montgomery-form modular arithmetic for a fixed odd modulus m of at
/// most kMaxLimbs limbs.
///
/// Construction picks a kernel compiled for a fixed limb width W — the
/// smallest instantiated width that holds m (kernel_widths()) — and
/// precomputes n' = -m⁻¹ mod 2⁶⁴ and R² mod m for R = 2^(64·W). Every
/// operand of a ladder is a W-limb array on the stack, and every modular
/// multiply is a product-scanning Montgomery multiply (the reduction
/// folded into the product's columns) with compile-time loop bounds — no
/// division and no allocation on the hot path. The windowed mod_exp, the
/// Straus/Shamir dual_exp, the Pippenger multi_exp and CombTable all run
/// on the kernel, staying in Montgomery form for the whole ladder and
/// converting in and out exactly once. Immutable after construction, so
/// one context can be shared freely across threads.
class MontgomeryCtx {
 public:
  /// Widest modulus a kernel is compiled for; Bignum::mod_exp sends wider
  /// moduli to mod_exp_ref.
  static constexpr std::size_t kMaxLimbs = 32;

  /// Throws PreconditionError unless m is odd, > 1 and at most kMaxLimbs
  /// limbs wide.
  explicit MontgomeryCtx(const Bignum& m);

  /// The instantiated kernel widths, ascending; the last is kMaxLimbs.
  static std::span<const std::size_t> kernel_widths();

  const Bignum& modulus() const { return m_; }
  std::size_t limb_count() const { return k_; }
  /// W: the width of the selected kernel (>= limb_count()); R = 2^(64·W).
  std::size_t kernel_width() const;

  /// a·R mod m (a is reduced mod m first).
  Bignum to_mont(const Bignum& a) const;
  /// a·R⁻¹ mod m (inverse of to_mont on reduced inputs).
  Bignum from_mont(const Bignum& a) const;

  /// Montgomery product a·b·R⁻¹ mod m. Operands are reduced mod m first;
  /// when both are in Montgomery form the result is the Montgomery form
  /// of the product.
  Bignum mont_mul(const Bignum& a, const Bignum& b) const;
  /// Montgomery square (same contract as mont_mul(a, a)).
  Bignum mont_sqr(const Bignum& a) const;
  /// a·b mod m in plain form: two REDCs instead of a long division.
  Bignum mul(const Bignum& a, const Bignum& b) const;

  /// base^exp mod m via a 4-bit fixed-window ladder entirely in
  /// Montgomery form. 0^0 = 1, matching Bignum::mod_exp_ref.
  Bignum mod_exp(const Bignum& base, const Bignum& exp) const;

  /// a^ea · b^eb mod m in ONE ladder: Straus/Shamir interleaving with
  /// 3-bit windows per exponent shares every squaring between the two
  /// exponentiations.
  Bignum dual_exp(const Bignum& a, const Bignum& ea, const Bignum& b,
                  const Bignum& eb) const;

  /// Π termᵢ.base ^ termᵢ.exp mod m. Pippenger's bucket method: one
  /// shared squaring chain over the longest exponent, with a window size
  /// chosen from the term count; below ~8 terms the bucket bookkeeping
  /// doesn't amortize, so the Straus dual_exp ladder is chained pairwise
  /// instead. Empty input returns 1 mod m.
  Bignum multi_exp(std::span<const MultiExpTerm> terms) const;

 private:
  Bignum m_;
  std::size_t k_ = 0;  // limb count of m
  std::shared_ptr<const detail::MontKernel> kernel_;

  friend class CombTable;
};

/// Fixed-base comb exponentiation (Lim–Lee) over a MontgomeryCtx.
///
/// For a base reused across many exponentiations (the group generator g,
/// the hashed input h a DDH VRF exponentiates for every key, or a public
/// key whose proofs it checks), precomputes the 2^t products of
/// base^(2^(i·span)) for the t = 8 comb teeth; each exponentiation then
/// costs `span` = bits/8 squarings and at most `span` table multiplies —
/// about 5× fewer Montgomery operations than a fresh windowed ladder,
/// for a build of about 1.4 ladders and a table of 256 entries.
/// Immutable after construction.
class CombTable {
 public:
  static constexpr std::size_t kTeeth = 8;

  /// Table for exponents up to `max_exp_bits` bits (at most
  /// 64·MontgomeryCtx::kMaxLimbs). Larger exponents are handled by exp()
  /// via a fallback to ctx->mod_exp.
  CombTable(std::shared_ptr<const MontgomeryCtx> ctx, const Bignum& base,
            std::size_t max_exp_bits);

  /// base^e mod m.
  Bignum exp(const Bignum& e) const;
  /// {base^e1, base^e2} in one pass over the table: the two products
  /// share the column walk and interleave their multiplies.
  std::pair<Bignum, Bignum> exp2(const Bignum& e1, const Bignum& e2) const;

  const Bignum& base() const { return base_; }

  std::size_t teeth() const { return kTeeth; }
  std::size_t span() const { return span_; }
  /// Size of the precomputed powers in bytes.
  std::size_t table_bytes() const {
    return table_.size() * sizeof(std::uint64_t);
  }

 private:
  std::shared_ptr<const MontgomeryCtx> ctx_;
  Bignum base_;
  std::size_t max_bits_ = 0;
  std::size_t span_ = 0;  // ceil(max_bits / kTeeth)
  // 2^kTeeth entries of kernel_width() limbs, Montgomery form:
  // entry s = Π_{i : bit i of s} base^(2^(i·span)).
  std::vector<std::uint64_t> table_;
};

}  // namespace coincidence::crypto
