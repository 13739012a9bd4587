// Randomized cross-checks of the Montgomery fast path against the
// division-based reference arithmetic: mont_mul vs mul_mod, windowed
// Montgomery mod_exp vs mod_exp_ref, Straus/Shamir dual_exp vs the
// product of two reference ladders, the fixed-base comb vs mod_exp_ref,
// and Jacobi vs the Euler criterion — over the RFC 3526 modulus and
// freshly generated small safe primes, including the edge operands
// (0, 1, m−1, values ≥ m) where reduction bugs hide.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/errors.h"
#include "common/rng.h"
#include "crypto/bignum.h"
#include "crypto/prime.h"

namespace coincidence::crypto {
namespace {

Bignum random_below(Rng& rng, const Bignum& m) {
  return Bignum::from_bytes_be(rng.next_bytes(m.to_bytes_be().size() + 8)) % m;
}

// The moduli under test: the production 1536-bit prime plus small safe
// primes of odd limb counts so the REDC loops see k = 2, 3, 4 word
// shapes, not just the 24-limb production shape.
const std::vector<Bignum>& test_moduli() {
  static const std::vector<Bignum> ms = [] {
    std::vector<Bignum> v;
    v.push_back(rfc3526_prime_1536());
    v.push_back(generate_safe_prime(80, 11).p);
    v.push_back(generate_safe_prime(130, 12).p);
    v.push_back(generate_safe_prime(200, 13).p);
    return v;
  }();
  return ms;
}

TEST(Montgomery, RejectsEvenOrTrivialModulus) {
  EXPECT_THROW(MontgomeryCtx(Bignum(0)), PreconditionError);
  EXPECT_THROW(MontgomeryCtx(Bignum(1)), PreconditionError);
  EXPECT_THROW(MontgomeryCtx(Bignum(1) << 64), PreconditionError);
}

TEST(Montgomery, RoundTripAndIdentity) {
  for (const Bignum& m : test_moduli()) {
    MontgomeryCtx ctx(m);
    Rng rng(401);
    for (int i = 0; i < 50; ++i) {
      Bignum a = random_below(rng, m);
      EXPECT_EQ(ctx.from_mont(ctx.to_mont(a)), a);
    }
    // Montgomery form of 1 behaves as the multiplicative identity.
    Bignum one_m = ctx.to_mont(Bignum(1));
    Bignum x = ctx.to_mont(random_below(rng, m));
    EXPECT_EQ(ctx.mont_mul(x, one_m), x);
  }
}

TEST(Montgomery, MontMulMatchesMulMod) {
  for (const Bignum& m : test_moduli()) {
    MontgomeryCtx ctx(m);
    Rng rng(402);
    for (int i = 0; i < 100; ++i) {
      Bignum a = random_below(rng, m);
      Bignum b = random_below(rng, m);
      Bignum am = ctx.to_mont(a), bm = ctx.to_mont(b);
      EXPECT_EQ(ctx.from_mont(ctx.mont_mul(am, bm)), Bignum::mul_mod(a, b, m));
      EXPECT_EQ(ctx.from_mont(ctx.mont_sqr(am)), Bignum::mul_mod(a, a, m));
    }
  }
}

TEST(Montgomery, MontMulEdgeOperands) {
  for (const Bignum& m : test_moduli()) {
    MontgomeryCtx ctx(m);
    Bignum m1 = m - Bignum(1);
    const Bignum cases[] = {Bignum(0), Bignum(1), Bignum(2), m1};
    for (const Bignum& a : cases) {
      for (const Bignum& b : cases) {
        Bignum got =
            ctx.from_mont(ctx.mont_mul(ctx.to_mont(a), ctx.to_mont(b)));
        EXPECT_EQ(got, Bignum::mul_mod(a, b, m));
      }
      EXPECT_EQ(ctx.from_mont(ctx.mont_sqr(ctx.to_mont(a))),
                Bignum::mul_mod(a, a, m));
    }
    // (m−1)² = 1 mod m — the largest reduced operands, worst-case carries.
    EXPECT_EQ(ctx.from_mont(ctx.mont_sqr(ctx.to_mont(m1))), Bignum(1));
  }
}

TEST(Montgomery, ModExpMatchesReference) {
  for (const Bignum& m : test_moduli()) {
    MontgomeryCtx ctx(m);
    Rng rng(403);
    for (int i = 0; i < 25; ++i) {
      Bignum base = random_below(rng, m);
      Bignum exp = random_below(rng, m);
      EXPECT_EQ(ctx.mod_exp(base, exp), Bignum::mod_exp_ref(base, exp, m));
    }
  }
}

TEST(Montgomery, ModExpEdgeCases) {
  for (const Bignum& m : test_moduli()) {
    MontgomeryCtx ctx(m);
    Bignum m1 = m - Bignum(1);
    // 0^0 = 1 by repo convention; 0^e = 0; x^0 = 1; x^1 = x.
    EXPECT_EQ(ctx.mod_exp(Bignum(0), Bignum(0)), Bignum(1));
    EXPECT_EQ(ctx.mod_exp(Bignum(0), m1), Bignum(0));
    EXPECT_EQ(ctx.mod_exp(m1, Bignum(0)), Bignum(1));
    EXPECT_EQ(ctx.mod_exp(m1, Bignum(1)), m1);
    // Base ≥ m must be reduced first, matching the reference ladder.
    Bignum big = m + m1;
    Rng rng(404);
    Bignum e = random_below(rng, m);
    EXPECT_EQ(ctx.mod_exp(big, e), Bignum::mod_exp_ref(big, e, m));
    // Fermat: a^(m−1) = 1 for prime m, gcd(a, m) = 1.
    EXPECT_EQ(ctx.mod_exp(Bignum(2), m1), Bignum(1));
  }
}

TEST(Montgomery, DispatcherAgreesWithReference) {
  // Bignum::mod_exp routes odd multi-limb moduli with long exponents to
  // the Montgomery path — both paths must be indistinguishable, and the
  // even-modulus case must still work (reference only).
  Rng rng(405);
  Bignum m = generate_safe_prime(130, 21).p;
  for (int i = 0; i < 10; ++i) {
    Bignum base = random_below(rng, m);
    Bignum exp = random_below(rng, m);
    EXPECT_EQ(Bignum::mod_exp(base, exp, m),
              Bignum::mod_exp_ref(base, exp, m));
  }
  Bignum even = m - Bignum(1);
  Bignum base = random_below(rng, even);
  EXPECT_EQ(Bignum::mod_exp(base, Bignum(12345), even),
            Bignum::mod_exp_ref(base, Bignum(12345), even));
}

TEST(Montgomery, DualExpMatchesProductOfReferences) {
  for (const Bignum& m : test_moduli()) {
    MontgomeryCtx ctx(m);
    Rng rng(406);
    for (int i = 0; i < 20; ++i) {
      Bignum a = random_below(rng, m);
      Bignum b = random_below(rng, m);
      Bignum ea = random_below(rng, m);
      Bignum eb = random_below(rng, m);
      Bignum want = Bignum::mul_mod(Bignum::mod_exp_ref(a, ea, m),
                                    Bignum::mod_exp_ref(b, eb, m), m);
      EXPECT_EQ(ctx.dual_exp(a, ea, b, eb), want);
    }
  }
}

TEST(Montgomery, DualExpEdgeExponents) {
  Bignum m = generate_safe_prime(130, 22).p;
  MontgomeryCtx ctx(m);
  Rng rng(407);
  Bignum a = random_below(rng, m);
  Bignum b = random_below(rng, m);
  Bignum e = random_below(rng, m);
  Bignum m1 = m - Bignum(1);
  // Zero exponents on either side, both sides, and mismatched lengths.
  EXPECT_EQ(ctx.dual_exp(a, Bignum(0), b, Bignum(0)), Bignum(1));
  EXPECT_EQ(ctx.dual_exp(a, e, b, Bignum(0)), Bignum::mod_exp_ref(a, e, m));
  EXPECT_EQ(ctx.dual_exp(a, Bignum(0), b, e), Bignum::mod_exp_ref(b, e, m));
  EXPECT_EQ(ctx.dual_exp(a, Bignum(1), b, Bignum(1)),
            Bignum::mul_mod(a, b, m));
  Bignum want = Bignum::mul_mod(Bignum::mod_exp_ref(a, m1, m),
                                Bignum::mod_exp_ref(b, Bignum(3), m), m);
  EXPECT_EQ(ctx.dual_exp(a, m1, b, Bignum(3)), want);
  // Unreduced bases.
  EXPECT_EQ(ctx.dual_exp(a + m, e, b + m, e),
            Bignum::mul_mod(Bignum::mod_exp_ref(a, e, m),
                            Bignum::mod_exp_ref(b, e, m), m));
}

TEST(Montgomery, CombTableMatchesReference) {
  for (const Bignum& m : test_moduli()) {
    auto ctx = std::make_shared<const MontgomeryCtx>(m);
    CombTable comb(ctx, Bignum(4), m.bit_length());
    Rng rng(408);
    for (int i = 0; i < 20; ++i) {
      Bignum e = random_below(rng, m);
      EXPECT_EQ(comb.exp(e), Bignum::mod_exp_ref(Bignum(4), e, m));
    }
    EXPECT_EQ(comb.exp(Bignum(0)), Bignum(1));
    EXPECT_EQ(comb.exp(Bignum(1)), Bignum(4));
    EXPECT_EQ(comb.exp(m - Bignum(1)),
              Bignum::mod_exp_ref(Bignum(4), m - Bignum(1), m));
    // Exponents beyond the table's max_exp_bits fall back to ctx mod_exp.
    Bignum huge = (Bignum(1) << (m.bit_length() + 13)) + Bignum(77);
    EXPECT_EQ(comb.exp(huge), Bignum::mod_exp_ref(Bignum(4), huge, m));
    // Two exponents in one walk, including a zero and an oversized one.
    const Bignum e1 = random_below(rng, m), e2 = random_below(rng, m);
    const auto [p1, p2] = comb.exp2(e1, e2);
    EXPECT_EQ(p1, Bignum::mod_exp_ref(Bignum(4), e1, m));
    EXPECT_EQ(p2, Bignum::mod_exp_ref(Bignum(4), e2, m));
    EXPECT_EQ(comb.exp2(Bignum(0), e2), std::make_pair(Bignum(1), p2));
    EXPECT_EQ(comb.exp2(huge, e1),
              std::make_pair(Bignum::mod_exp_ref(Bignum(4), huge, m), p1));
  }
}

TEST(Montgomery, MultiExpMatchesProductOfReferenceLadders) {
  // Pippenger vs Π mod_exp_ref over every term-count regime: the Straus
  // fallback (< 8 terms), the window-size breakpoints, and mixed-width
  // exponents (the batch path mixes 128-bit combiners with full-width
  // sums). k = 0 must yield the empty product.
  for (const Bignum& m : test_moduli()) {
    MontgomeryCtx ctx(m);
    Rng rng(410);
    for (std::size_t k : {0u, 1u, 2u, 3u, 7u, 8u, 20u, 40u}) {
      std::vector<MultiExpTerm> terms;
      Bignum want(1);
      for (std::size_t i = 0; i < k; ++i) {
        Bignum base = random_below(rng, m);
        // Mixed widths: short 64-bit, ~128-bit, and full-width exponents.
        Bignum exp;
        switch (i % 3) {
          case 0: exp = Bignum(rng.next_u64()); break;
          case 1: exp = Bignum::from_bytes_be(rng.next_bytes(16)); break;
          default: exp = random_below(rng, m); break;
        }
        want = Bignum::mul_mod(want, Bignum::mod_exp_ref(base, exp, m), m);
        terms.push_back(MultiExpTerm{std::move(base), std::move(exp)});
      }
      EXPECT_EQ(ctx.multi_exp(terms), want)
          << "m bits=" << m.bit_length() << " k=" << k;
    }
  }
}

TEST(Montgomery, MultiExpEdgeExponents) {
  for (const Bignum& m : test_moduli()) {
    MontgomeryCtx ctx(m);
    Rng rng(411);
    Bignum a = random_below(rng, m);
    Bignum b = random_below(rng, m);
    // All-zero exponents: the empty product again.
    std::vector<MultiExpTerm> zeros;
    for (int i = 0; i < 10; ++i)
      zeros.push_back(MultiExpTerm{random_below(rng, m), Bignum(0)});
    EXPECT_EQ(ctx.multi_exp(zeros), Bignum(1));
    // A zero exponent mixed into a live batch contributes nothing.
    std::vector<MultiExpTerm> mixed;
    mixed.push_back(MultiExpTerm{a, Bignum(3)});
    for (int i = 0; i < 12; ++i)
      mixed.push_back(MultiExpTerm{random_below(rng, m), Bignum(0)});
    mixed.push_back(MultiExpTerm{b, Bignum(1)});
    Bignum want = Bignum::mul_mod(Bignum::mod_exp_ref(a, Bignum(3), m), b, m);
    EXPECT_EQ(ctx.multi_exp(mixed), want);
    // Unreduced bases reduce like everywhere else in the ctx API.
    std::vector<MultiExpTerm> unreduced;
    for (int i = 0; i < 9; ++i)
      unreduced.push_back(MultiExpTerm{a + m, Bignum(2)});
    EXPECT_EQ(ctx.multi_exp(unreduced),
              Bignum::mod_exp_ref(a, Bignum(18), m));
  }
}

TEST(MontgomeryKernels, EveryWidthMatchesReference) {
  // One random odd modulus of every limb count 1..kMaxLimbs, so every
  // instantiated kernel runs both on an exact fit and on the rounded-up
  // widths, against mod_exp_ref on the edge operands: 0, 1, m−1, m,
  // values above m and wider than m, and a zero exponent.
  Rng rng(412);
  const auto widths = MontgomeryCtx::kernel_widths();
  EXPECT_EQ(widths.back(), MontgomeryCtx::kMaxLimbs);
  for (std::size_t k = 1; k <= MontgomeryCtx::kMaxLimbs; ++k) {
    Bytes mb = rng.next_bytes(8 * k);
    mb[0] |= 0x80;     // exactly k limbs
    mb.back() |= 0x01;  // odd
    const Bignum m = Bignum::from_bytes_be(mb);
    ASSERT_EQ(m.limbs().size(), k);
    const MontgomeryCtx ctx(m);
    EXPECT_EQ(ctx.kernel_width(),
              *std::lower_bound(widths.begin(), widths.end(), k));

    const Bignum m1 = m - Bignum(1);
    const Bignum wide = (m << 70) + Bignum(12345);  // wider than m
    const Bignum bases[] = {Bignum(0), Bignum(1), Bignum(2), m1, m,
                            m + Bignum(1), m + m + Bignum(5), wide,
                            random_below(rng, m)};
    const Bignum e128 = Bignum::from_bytes_be(rng.next_bytes(16));
    for (const Bignum& b : bases) {
      const std::string at = "k=" + std::to_string(k) + " b=" + b.to_hex();
      EXPECT_EQ(ctx.mod_exp(b, Bignum(0)), Bignum(1)) << at;
      EXPECT_EQ(ctx.mod_exp(b, e128), Bignum::mod_exp_ref(b, e128, m)) << at;
      EXPECT_EQ(ctx.mod_exp(b, Bignum(3)), Bignum::mod_exp_ref(b, Bignum(3), m))
          << at;
      EXPECT_EQ(ctx.mul(b, m1), Bignum::mul_mod(b, m1, m)) << at;
      EXPECT_EQ(ctx.from_mont(ctx.mont_sqr(ctx.to_mont(b))),
                Bignum::mul_mod(b % m, b % m, m))
          << at;
    }
    // (m−1)² = 1: the largest reduced operands, worst-case carries.
    EXPECT_EQ(ctx.from_mont(ctx.mont_mul(ctx.to_mont(m1), ctx.to_mont(m1))),
              Bignum(1));
    // One full-width exponent per width, and the other ladders.
    const Bignum a = random_below(rng, m), b = random_below(rng, m);
    const Bignum ea = random_below(rng, m), eb = e128;
    const Bignum want_a = Bignum::mod_exp_ref(a, ea, m);
    const Bignum want_b = Bignum::mod_exp_ref(b, eb, m);
    EXPECT_EQ(ctx.mod_exp(a, ea), want_a) << "k=" << k;
    EXPECT_EQ(ctx.dual_exp(a, ea, b, eb), Bignum::mul_mod(want_a, want_b, m))
        << "k=" << k;
    EXPECT_EQ(ctx.dual_exp(a + m, Bignum(0), b, Bignum(0)), Bignum(1));
    auto shared = std::make_shared<const MontgomeryCtx>(m);
    const CombTable comb(shared, a, m.bit_length());
    EXPECT_EQ(comb.exp(ea), want_a) << "k=" << k;
    EXPECT_EQ(comb.exp2(m1, ea),
              std::make_pair(Bignum::mod_exp_ref(a, m1, m), want_a))
        << "k=" << k;
    // A 128-bit table (the per-key pk^c shape): span 16 at every width.
    const CombTable short_comb(shared, b, 128);
    EXPECT_EQ(short_comb.exp(eb), want_b) << "k=" << k;
    EXPECT_EQ(comb.exp(m1), Bignum::mod_exp_ref(a, m1, m)) << "k=" << k;
    std::vector<MultiExpTerm> terms;
    Bignum want(1);
    for (int i = 0; i < 9; ++i) {  // the Pippenger path (>= 8 terms)
      const Bignum base = i == 0 ? m1 : random_below(rng, m);
      const Bignum exp = i == 1 ? Bignum(0) : Bignum(rng.next_u64());
      want = Bignum::mul_mod(want, Bignum::mod_exp_ref(base, exp, m), m);
      terms.push_back({base, exp});
    }
    EXPECT_EQ(ctx.multi_exp(terms), want) << "k=" << k;
  }
}

TEST(MontgomeryKernels, WiderModuliGoToTheReferenceLadder) {
  Rng rng(413);
  Bytes mb = rng.next_bytes(8 * (MontgomeryCtx::kMaxLimbs + 1));
  mb[0] |= 0x80;
  mb.back() |= 0x01;
  const Bignum m = Bignum::from_bytes_be(mb);
  EXPECT_THROW(MontgomeryCtx{m}, PreconditionError);
  const Bignum base = random_below(rng, m);
  const Bignum e = Bignum::from_bytes_be(rng.next_bytes(12));  // > 64 bits
  EXPECT_EQ(Bignum::mod_exp(base, e, m), Bignum::mod_exp_ref(base, e, m));
}

TEST(Montgomery, JacobiMatchesEulerCriterion) {
  for (const Bignum& m : test_moduli()) {
    if (m.bit_length() > 256) continue;  // Euler oracle cost
    Bignum q = (m - Bignum(1)) >> 1;
    Rng rng(409);
    for (int i = 0; i < 40; ++i) {
      Bignum a = random_below(rng, m);
      int j = Bignum::jacobi(a, m);
      if (a.is_zero()) {
        EXPECT_EQ(j, 0);
        continue;
      }
      // For prime m: (a/m) = a^((m−1)/2) mod m, mapping m−1 ↦ −1.
      Bignum euler = Bignum::mod_exp_ref(a, q, m);
      int want = euler == Bignum(1) ? 1 : -1;
      EXPECT_EQ(j, want) << "a=" << a.to_hex();
    }
    EXPECT_EQ(Bignum::jacobi(Bignum(0), m), 0);
    EXPECT_EQ(Bignum::jacobi(Bignum(1), m), 1);
    // Unreduced argument: (a/m) depends only on a mod m.
    Bignum a = random_below(rng, m);
    EXPECT_EQ(Bignum::jacobi(a + m, m), Bignum::jacobi(a, m));
  }
}

}  // namespace
}  // namespace coincidence::crypto
