// Bignum::jacobi against independent oracles: the Euler criterion
// (a^((p−1)/2) mod p through mod_exp_ref) for prime moduli of every limb
// count 1–32, the binary algorithm the library used before (kept here,
// bit for bit, as an oracle for composite moduli), multiplicativity in
// both arguments, and the edge operands where the word-level batches,
// their carries and their sign rules can go wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/errors.h"
#include "common/rng.h"
#include "crypto/bignum.h"
#include "crypto/prime.h"

namespace coincidence::crypto {
namespace {

// The library's Jacobi before the batched version: shift, compare and
// subtract on limb vectors, one bit at a time.
int reference_jacobi(const Bignum& a, const Bignum& n) {
  using Limbs = std::vector<std::uint64_t>;
  auto norm = [](Limbs& v) {
    while (!v.empty() && v.back() == 0) v.pop_back();
  };
  auto low = [](const Limbs& v) -> std::uint64_t {
    return v.empty() ? 0 : v[0];
  };
  auto cmp = [](const Limbs& u, const Limbs& v) -> int {
    if (u.size() != v.size()) return u.size() < v.size() ? -1 : 1;
    for (std::size_t i = u.size(); i-- > 0;)
      if (u[i] != v[i]) return u[i] < v[i] ? -1 : 1;
    return 0;
  };
  auto sub_in_place = [&norm](Limbs& u, const Limbs& v) {  // u -= v, u >= v
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < u.size(); ++i) {
      const std::uint64_t vi = i < v.size() ? v[i] : 0;
      const std::uint64_t d = u[i] - vi;
      const std::uint64_t b = (u[i] < vi) | (d < borrow);
      u[i] = d - borrow;
      borrow = b;
    }
    norm(u);
  };
  auto shift_right = [&norm](Limbs& u, std::size_t k) {
    const std::size_t limbs = k / 64, bits = k % 64;
    if (limbs)
      u.erase(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(limbs, u.size())));
    if (bits && !u.empty()) {
      for (std::size_t i = 0; i + 1 < u.size(); ++i)
        u[i] = (u[i] >> bits) | (u[i + 1] << (64 - bits));
      u.back() >>= bits;
    }
    norm(u);
  };
  auto trailing_zeros = [](const Limbs& u) {
    std::size_t tz = 0, i = 0;
    while (i < u.size() && u[i] == 0) {
      tz += 64;
      ++i;
    }
    if (i < u.size()) tz += static_cast<std::size_t>(__builtin_ctzll(u[i]));
    return tz;
  };

  Limbs x = (a % n).limbs();
  Limbs y = n.limbs();
  int result = 1;
  while (!x.empty()) {
    const std::size_t twos = trailing_zeros(x);
    if (twos != 0) {
      const std::uint64_t y_mod8 = low(y) & 7;
      if ((twos & 1) && (y_mod8 == 3 || y_mod8 == 5)) result = -result;
      shift_right(x, twos);
    }
    if (cmp(x, y) < 0) {
      x.swap(y);
      if ((low(x) & 3) == 3 && (low(y) & 3) == 3) result = -result;
    }
    sub_in_place(x, y);
  }
  return y.size() == 1 && y[0] == 1 ? result : 0;
}

Bignum random_bits(Rng& rng, std::size_t bits) {
  Bignum x = Bignum::from_bytes_be(rng.next_bytes((bits + 7) / 8));
  return x >> ((8 - bits % 8) % 8);
}

Bignum random_below(Rng& rng, const Bignum& m) {
  return Bignum::from_bytes_be(rng.next_bytes(m.to_bytes_be().size() + 8)) % m;
}

// An odd modulus of exactly `bits` bits.
Bignum random_odd(Rng& rng, std::size_t bits) {
  const Bignum x = random_bits(rng, bits - 1) + (Bignum(1) << (bits - 1));
  return x.is_odd() ? x : x + Bignum(1);
}

// The first prime at or above a random odd `bits`-bit start. Small prime
// factors are sieved off before Miller–Rabin sees a candidate.
Bignum random_prime(Rng& rng, std::size_t bits) {
  static const std::vector<std::uint64_t> small = [] {
    std::vector<std::uint64_t> ps;
    for (std::uint64_t c = 3; c < 2000; c += 2) {
      bool prime = true;
      for (std::uint64_t p : ps) prime = prime && c % p != 0;
      if (prime) ps.push_back(c);
    }
    return ps;
  }();
  Bignum start = random_odd(rng, bits);
  std::vector<std::uint64_t> residue;
  for (std::uint64_t p : small)
    residue.push_back((start % Bignum(p)).low_u64());
  for (std::uint64_t step = 0;; step += 2) {
    bool sieved = false;
    for (std::size_t i = 0; i < small.size() && !sieved; ++i)
      sieved = (residue[i] + step) % small[i] == 0;
    if (sieved) continue;
    const Bignum c = start + Bignum(step);
    if (is_probable_prime(c, 4)) return c;
  }
}

int euler(const Bignum& a, const Bignum& p) {
  const Bignum r = Bignum::mod_exp_ref(a, (p - Bignum(1)) >> 1, p);
  if (r.is_zero()) return 0;
  return r == Bignum(1) ? 1 : -1;
}

TEST(Jacobi, MatchesEulerCriterionForPrimesOfEveryLimbCount) {
  Rng rng(701);
  for (std::size_t limbs = 1; limbs <= MontgomeryCtx::kMaxLimbs; ++limbs) {
    // The top limb nearly full, so every limb of the batches carries.
    const Bignum p = random_prime(rng, 64 * limbs - 1);
    ASSERT_EQ(p.limbs().size(), limbs);
    const int samples = limbs <= 8 ? 24 : 4;
    for (int i = 0; i < samples; ++i) {
      const Bignum a = random_below(rng, p);
      EXPECT_EQ(Bignum::jacobi(a, p), euler(a, p))
          << "limbs=" << limbs << " a=" << a.to_hex();
    }
    // A square is a residue and p − square is not, as p ≡ 3 (mod 4) or
    // not: both sides of the sign rule for −1.
    const Bignum r = random_below(rng, p);
    const Bignum sq = Bignum::mul_mod(r, r, p);
    EXPECT_EQ(Bignum::jacobi(sq, p), 1) << "limbs=" << limbs;
    EXPECT_EQ(Bignum::jacobi(p - sq, p), euler(p - sq, p))
        << "limbs=" << limbs;
  }
}

TEST(Jacobi, MatchesTheBinaryOracleOnCompositeModuli) {
  Rng rng(702);
  for (std::size_t bits : {3, 7, 63, 64, 65, 127, 128, 129, 200, 256, 257,
                           511, 768, 1536, 2048}) {
    for (int i = 0; i < 20; ++i) {
      const Bignum n = random_odd(rng, bits);
      const Bignum a = i % 4 == 0 ? random_bits(rng, bits + 70)  // a ≥ n
                                  : random_below(rng, n);
      EXPECT_EQ(Bignum::jacobi(a, n), reference_jacobi(a, n))
          << "a=" << a.to_hex() << " n=" << n.to_hex();
    }
  }
}

TEST(Jacobi, CloseAndLopsidedOperands) {
  // The shapes where the 64-bit approximations are least exact: a and n
  // sharing their top words, and a far shorter than n.
  Rng rng(703);
  for (std::size_t bits : {130, 256, 1000, 1536}) {
    const Bignum n = random_odd(rng, bits);
    for (std::uint64_t d : {1ULL, 2ULL, 3ULL, 1ULL << 33, ~0ULL}) {
      const Bignum a = n - Bignum(d);
      EXPECT_EQ(Bignum::jacobi(a, n), reference_jacobi(a, n)) << bits;
      const Bignum half = n >> 1;
      EXPECT_EQ(Bignum::jacobi(half + Bignum(d), n),
                reference_jacobi(half + Bignum(d), n))
          << bits;
    }
    for (std::size_t short_bits : {1, 2, 31, 33, 64, 65, 100}) {
      const Bignum a = random_bits(rng, short_bits);
      EXPECT_EQ(Bignum::jacobi(a, n), reference_jacobi(a, n)) << bits;
    }
    const Bignum pow2 = Bignum(1) << (bits - 3);
    EXPECT_EQ(Bignum::jacobi(pow2, n), reference_jacobi(pow2, n)) << bits;
  }
}

TEST(Jacobi, OperandsSharingTheirTopWords) {
  // a and n agree on their top 32 bits or more, so the 64-bit
  // approximations cannot order them and batches often subtract the
  // wrong way round: rows come out negative and the rule for −a decides.
  Rng rng(707);
  for (std::size_t limbs : {2, 3, 4, 8, 24}) {
    for (int i = 0; i < 100; ++i) {
      const Bignum n = random_odd(rng, 64 * limbs);
      const std::size_t low_bits = 64 * limbs - 32 - rng.next_u64() % 40;
      const Bignum a =
          ((n >> low_bits) << low_bits) + random_bits(rng, low_bits);
      EXPECT_EQ(Bignum::jacobi(a, n), reference_jacobi(a, n))
          << "a=" << a.to_hex() << " n=" << n.to_hex();
    }
  }
}

TEST(Jacobi, IsMultiplicativeInBothArguments) {
  Rng rng(704);
  for (std::size_t bits : {64, 96, 256, 700}) {
    for (int i = 0; i < 10; ++i) {
      const Bignum m = random_odd(rng, bits), n = random_odd(rng, bits / 2);
      const Bignum a = random_bits(rng, bits), b = random_bits(rng, bits);
      // (ab | n) = (a | n)(b | n)
      EXPECT_EQ(Bignum::jacobi(a * b, m),
                Bignum::jacobi(a, m) * Bignum::jacobi(b, m));
      // (a | mn) = (a | m)(a | n)
      EXPECT_EQ(Bignum::jacobi(a, m * n),
                Bignum::jacobi(a, m) * Bignum::jacobi(a, n));
    }
  }
}

TEST(Jacobi, EdgeOperands) {
  Rng rng(705);
  std::vector<Bignum> moduli = {Bignum(1), Bignum(3), Bignum(5), Bignum(7),
                                Bignum(~0ULL), Bignum((1ULL << 61) - 1)};
  for (std::size_t bits : {65, 128, 256, 1536}) {
    moduli.push_back(random_odd(rng, bits));
    moduli.push_back((Bignum(1) << bits) - Bignum(1));  // all ones
  }
  moduli.push_back(rfc3526_prime_1536());
  for (const Bignum& n : moduli) {
    const bool unit = n == Bignum(1);
    EXPECT_EQ(Bignum::jacobi(Bignum(0), n), unit ? 1 : 0) << n.to_hex();
    EXPECT_EQ(Bignum::jacobi(Bignum(1), n), 1) << n.to_hex();
    EXPECT_EQ(Bignum::jacobi(n, n), unit ? 1 : 0) << n.to_hex();
    EXPECT_EQ(Bignum::jacobi(n * Bignum(12345), n), unit ? 1 : 0);
    if (unit) continue;
    // (−1 | n) = +1 iff n ≡ 1 (mod 4).
    EXPECT_EQ(Bignum::jacobi(n - Bignum(1), n), (n.low_u64() & 3) == 1 ? 1 : -1)
        << n.to_hex();
    // (2 | n) = +1 iff n ≡ ±1 (mod 8).
    const std::uint64_t n8 = n.low_u64() & 7;
    EXPECT_EQ(Bignum::jacobi(Bignum(2), n), n8 == 1 || n8 == 7 ? 1 : -1)
        << n.to_hex();
    // Only a mod n matters, whatever the size of a.
    const Bignum a = random_below(rng, n);
    EXPECT_EQ(Bignum::jacobi(a + n, n), Bignum::jacobi(a, n));
    EXPECT_EQ(Bignum::jacobi(a + n * Bignum(1ULL << 40), n),
              Bignum::jacobi(a, n));
    EXPECT_EQ(Bignum::jacobi(a, n), reference_jacobi(a, n)) << n.to_hex();
  }
  EXPECT_THROW(Bignum::jacobi(Bignum(3), Bignum(0)), PreconditionError);
  EXPECT_THROW(Bignum::jacobi(Bignum(3), Bignum(10)), PreconditionError);
}

TEST(Jacobi, WiderThanTheStackBuffer) {
  // Moduli past MontgomeryCtx::kMaxLimbs run on a heap buffer.
  Rng rng(706);
  const Bignum n = random_odd(rng, 64 * MontgomeryCtx::kMaxLimbs + 100);
  for (int i = 0; i < 5; ++i) {
    const Bignum a = random_below(rng, n);
    EXPECT_EQ(Bignum::jacobi(a, n), reference_jacobi(a, n));
  }
}

}  // namespace
}  // namespace coincidence::crypto
