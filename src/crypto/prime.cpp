#include "crypto/prime.h"

#include <optional>
#include <vector>

#include "common/errors.h"
#include "crypto/hmac.h"

namespace coincidence::crypto {

namespace {

const std::vector<std::uint32_t>& small_primes() {
  static const std::vector<std::uint32_t> primes = [] {
    constexpr std::uint32_t kLimit = 10000;
    std::vector<bool> sieve(kLimit, true);
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 2; i < kLimit; ++i) {
      if (!sieve[i]) continue;
      out.push_back(i);
      for (std::uint32_t j = i * 2; j < kLimit; j += i) sieve[j] = false;
    }
    return out;
  }();
  return primes;
}

std::uint64_t mod_small(const Bignum& n, std::uint64_t m) {
  // Compute n mod m for small m via per-limb reduction (base 2^64).
  const auto& limbs = n.limbs();
  unsigned __int128 rem = 0;
  for (std::size_t i = limbs.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs[i]) % m;
  }
  return static_cast<std::uint64_t>(rem);
}

// n == v, without building a Bignum for v.
bool equals_u64(const Bignum& n, std::uint64_t v) {
  return n.limbs().size() <= 1 && n.low_u64() == v;
}

}  // namespace

bool is_probable_prime(const Bignum& n, int rounds) {
  if (n.limbs().size() <= 1 && n.low_u64() < 2) return false;
  for (std::uint32_t p : small_primes()) {
    if (equals_u64(n, p)) return true;
    if (mod_small(n, p) == 0) return false;
  }

  // n − 1 = d·2^r with d odd. One Montgomery context (when n fits a
  // kernel) serves every round.
  const Bignum n_minus_1 = n - Bignum(1);
  Bignum d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  std::optional<MontgomeryCtx> ctx;
  if (n.limbs().size() <= MontgomeryCtx::kMaxLimbs) ctx.emplace(n);
  // One Miller–Rabin round: true if n passes for base a.
  auto passes = [&](const Bignum& a) {
    Bignum x = ctx ? ctx->mod_exp(a, d) : Bignum::mod_exp(a, d, n);
    if (equals_u64(x, 1) || x == n_minus_1) return true;
    for (std::size_t i = 1; i < r; ++i) {
      x = ctx ? ctx->mul(x, x) : Bignum::mul_mod(x, x, n);
      if (x == n_minus_1) return true;
      if (equals_u64(x, 1)) return false;  // nontrivial sqrt of 1: composite
    }
    return false;
  };

  // Fixed bases first (cheap early rejection), then DRBG-derived bases.
  if (!passes(Bignum(2))) return false;
  if (!passes(Bignum(3))) return false;

  HmacDrbg drbg(n.to_bytes_be());
  const std::size_t byte_len = (n.bit_length() + 7) / 8;
  const Bignum n_minus_3 = n - Bignum(3);
  for (int i = 0; i < rounds; ++i) {
    Bignum a = Bignum::from_bytes_be(drbg.generate(byte_len)) % n_minus_3;
    a = a + Bignum(2);  // a in [2, n-2]
    if (!passes(a)) return false;
  }
  return true;
}

SafePrime generate_safe_prime(std::size_t bits, std::uint64_t seed) {
  COIN_REQUIRE(bits >= 16, "generate_safe_prime: need >= 16 bits");
  HmacDrbg drbg(bytes_of_u64(seed));
  const std::size_t qbits = bits - 1;
  const std::size_t qbytes = (qbits + 7) / 8;

  for (;;) {
    Bignum q = Bignum::from_bytes_be(drbg.generate(qbytes));
    // Force exact bit length (set the top bit) and oddness.
    Bignum top = Bignum(1) << (qbits - 1);
    q = (q % top) + top;
    if (!q.is_odd()) q = q + Bignum(1);

    // Step by 2 from the candidate; bounded scan before reseeding.
    for (int step = 0; step < 4096; ++step, q = q + Bignum(2)) {
      if (q.bit_length() != qbits) break;
      bool sieved_out = false;
      for (std::uint32_t sp : small_primes()) {
        std::uint64_t qm = mod_small(q, sp);
        if (qm == 0 || (2 * qm + 1) % sp == 0) {
          if (!equals_u64(q, sp)) {
            sieved_out = true;
            break;
          }
        }
      }
      if (sieved_out) continue;
      if (!is_probable_prime(q, 8)) continue;
      Bignum p = (q << 1) + Bignum(1);
      if (!is_probable_prime(p, 8)) continue;
      // Confirm with full-strength rounds.
      if (is_probable_prime(q, 32) && is_probable_prime(p, 32)) {
        return {p, q};
      }
    }
  }
}

const Bignum& rfc2409_prime_768() {
  static const Bignum p = Bignum::from_hex(
      "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
      "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
      "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF");
  return p;
}

const Bignum& rfc3526_prime_1536() {
  static const Bignum p = Bignum::from_hex(
      "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
      "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
      "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
      "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
      "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
      "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF");
  return p;
}

}  // namespace coincidence::crypto
