#include "crypto/bignum.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>

#include "common/errors.h"

namespace coincidence::crypto {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;
}  // namespace

Bignum::Bignum(u64 v) {
  if (v != 0) limbs_.push_back(v);
}

Bignum Bignum::from_limbs(std::span<const u64> limbs) {
  Bignum out;
  out.limbs_.assign(limbs.begin(), limbs.end());
  out.normalize();
  return out;
}

void Bignum::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

Bignum Bignum::from_bytes_be(BytesView data) {
  Bignum out;
  out.limbs_.assign((data.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    // byte i (big-endian) contributes to bit offset 8*(size-1-i)
    std::size_t bit_off = 8 * (data.size() - 1 - i);
    out.limbs_[bit_off / 64] |= static_cast<u64>(data[i]) << (bit_off % 64);
  }
  out.normalize();
  return out;
}

Bignum Bignum::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2 != 0) padded.insert(padded.begin(), '0');
  return from_bytes_be(::coincidence::from_hex(padded));
}

Bytes Bignum::to_bytes_be(std::size_t min_len) const {
  std::size_t bytes_needed = (bit_length() + 7) / 8;
  std::size_t len = std::max(bytes_needed, min_len);
  Bytes out(len, 0);
  for (std::size_t i = 0; i < bytes_needed; ++i) {
    std::size_t bit_off = 8 * i;
    auto byte = static_cast<std::uint8_t>(
        (limbs_[bit_off / 64] >> (bit_off % 64)) & 0xff);
    out[len - 1 - i] = byte;
  }
  return out;
}

std::string Bignum::to_hex() const {
  if (is_zero()) return "0";
  std::string s = ::coincidence::to_hex(to_bytes_be());
  std::size_t nz = s.find_first_not_of('0');
  return s.substr(nz);
}

std::size_t Bignum::bit_length() const {
  if (limbs_.empty()) return 0;
  u64 top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 64;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool Bignum::bit(std::size_t i) const {
  std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int Bignum::compare(const Bignum& a, const Bignum& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

Bignum Bignum::operator+(const Bignum& rhs) const {
  Bignum out;
  const auto& a = limbs_;
  const auto& b = rhs.limbs_;
  std::size_t n = std::max(a.size(), b.size());
  out.limbs_.assign(n + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 sum = static_cast<u128>(i < a.size() ? a[i] : 0) +
               (i < b.size() ? b[i] : 0) + carry;
    out.limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.normalize();
  return out;
}

Bignum Bignum::operator-(const Bignum& rhs) const {
  COIN_REQUIRE(*this >= rhs, "Bignum subtraction underflow");
  Bignum out;
  out.limbs_.assign(limbs_.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 b = i < rhs.limbs_.size() ? rhs.limbs_[i] : 0;
    u128 diff = static_cast<u128>(limbs_[i]) - b - borrow;
    out.limbs_[i] = static_cast<u64>(diff);
    borrow = (diff >> 64) ? 1 : 0;  // wrapped => borrow
  }
  COIN_REQUIRE(borrow == 0, "Bignum subtraction internal underflow");
  out.normalize();
  return out;
}

namespace {

// Limb count above which Karatsuba beats schoolbook. The allocation
// overhead of the splits only amortizes above ~2048 bits, so the 1536-bit
// RFC 3526 group (24 limbs) stays on the cache-friendly schoolbook path.
constexpr std::size_t kKaratsubaThreshold = 32;

}  // namespace

Bignum Bignum::operator*(const Bignum& rhs) const {
  if (is_zero() || rhs.is_zero()) return Bignum();

  // Karatsuba: split both operands at half the larger width and recurse:
  //   x = x1·B + x0, y = y1·B + y0 (B = 2^(64·half)),
  //   xy = z2·B² + (z1 − z2 − z0)·B + z0,
  //   z0 = x0·y0, z2 = x1·y1, z1 = (x0+x1)(y0+y1).
  if (limbs_.size() >= kKaratsubaThreshold &&
      rhs.limbs_.size() >= kKaratsubaThreshold) {
    std::size_t half = (std::max(limbs_.size(), rhs.limbs_.size()) + 1) / 2;
    auto split = [half](const Bignum& v) {
      Bignum lo, hi;
      if (v.limbs_.size() <= half) {
        lo = v;
      } else {
        lo.limbs_.assign(v.limbs_.begin(),
                         v.limbs_.begin() + static_cast<std::ptrdiff_t>(half));
        lo.normalize();
        hi.limbs_.assign(v.limbs_.begin() + static_cast<std::ptrdiff_t>(half),
                         v.limbs_.end());
      }
      return std::make_pair(lo, hi);
    };
    auto [x0, x1] = split(*this);
    auto [y0, y1] = split(rhs);
    Bignum z0 = x0 * y0;
    Bignum z2 = x1 * y1;
    Bignum z1 = (x0 + x1) * (y0 + y1) - z2 - z0;
    return (z2 << (128 * half)) + (z1 << (64 * half)) + z0;
  }

  // Schoolbook base case with 128-bit intermediates.
  Bignum out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(limbs_[i]) * rhs.limbs_[j] +
                 out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out.limbs_[i + rhs.limbs_.size()] += carry;
  }
  out.normalize();
  return out;
}

Bignum Bignum::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  std::size_t limb_shift = bits / 64;
  std::size_t bit_shift = bits % 64;
  Bignum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0)
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
  }
  out.normalize();
  return out;
}

Bignum Bignum::operator>>(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  std::size_t limb_shift = bits / 64;
  std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return Bignum();
  Bignum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size())
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
  }
  out.normalize();
  return out;
}

DivMod divmod(const Bignum& u, const Bignum& v) {
  COIN_REQUIRE(!v.is_zero(), "Bignum division by zero");
  if (Bignum::compare(u, v) < 0) return {Bignum(), u};

  // Single-limb divisor fast path.
  if (v.limbs_.size() == 1) {
    u64 d = v.limbs_[0];
    Bignum q;
    q.limbs_.assign(u.limbs_.size(), 0);
    u128 rem = 0;
    for (std::size_t i = u.limbs_.size(); i-- > 0;) {
      u128 cur = (rem << 64) | u.limbs_[i];
      q.limbs_[i] = static_cast<u64>(cur / d);
      rem = cur % d;
    }
    q.normalize();
    return {q, Bignum(static_cast<u64>(rem))};
  }

  // Knuth TAOCP Vol. 2, Algorithm D, with 64-bit limbs.
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;

  // D1: normalize so the divisor's top limb has its high bit set.
  int shift = 0;
  for (u64 top = v.limbs_.back(); (top & (1ULL << 63)) == 0; top <<= 1) ++shift;
  Bignum un = u << static_cast<std::size_t>(shift);
  Bignum vn = v << static_cast<std::size_t>(shift);
  un.limbs_.resize(u.limbs_.size() + 1, 0);  // extra high limb for D3/D4
  vn.limbs_.resize(n, 0);

  Bignum q;
  q.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate qhat from the top two limbs of the current remainder.
    u128 numer = (static_cast<u128>(un.limbs_[j + n]) << 64) | un.limbs_[j + n - 1];
    u128 qhat = numer / vn.limbs_[n - 1];
    u128 rhat = numer % vn.limbs_[n - 1];
    while (qhat > ~0ULL ||
           (qhat * vn.limbs_[n - 2]) >
               ((rhat << 64) | un.limbs_[j + n - 2])) {
      --qhat;
      rhat += vn.limbs_[n - 1];
      if (rhat > ~0ULL) break;
    }

    // D4: multiply-and-subtract qhat * vn from un[j .. j+n].
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 prod = qhat * vn.limbs_[i] + carry;
      carry = prod >> 64;
      u128 sub = static_cast<u128>(un.limbs_[i + j]) -
                 static_cast<u64>(prod) - borrow;
      un.limbs_[i + j] = static_cast<u64>(sub);
      borrow = (sub >> 64) ? 1 : 0;
    }
    u128 sub = static_cast<u128>(un.limbs_[j + n]) -
               static_cast<u64>(carry) - borrow;
    un.limbs_[j + n] = static_cast<u64>(sub);
    bool went_negative = (sub >> 64) != 0;

    // D5/D6: if we overshot, add the divisor back once.
    q.limbs_[j] = static_cast<u64>(qhat);
    if (went_negative) {
      --q.limbs_[j];
      u128 carry2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(un.limbs_[i + j]) + vn.limbs_[i] + carry2;
        un.limbs_[i + j] = static_cast<u64>(sum);
        carry2 = sum >> 64;
      }
      un.limbs_[j + n] += static_cast<u64>(carry2);
    }
  }

  q.normalize();
  un.limbs_.resize(n);
  un.normalize();
  Bignum r = un >> static_cast<std::size_t>(shift);
  return {q, r};
}

Bignum Bignum::operator/(const Bignum& rhs) const { return divmod(*this, rhs).quotient; }
Bignum Bignum::operator%(const Bignum& rhs) const { return divmod(*this, rhs).remainder; }

Bignum Bignum::add_mod(const Bignum& a, const Bignum& b, const Bignum& m) {
  Bignum s = a + b;
  if (s >= m) s = s - m;
  return s;
}

Bignum Bignum::sub_mod(const Bignum& a, const Bignum& b, const Bignum& m) {
  if (a >= b) return a - b;
  return m - (b - a);
}

Bignum Bignum::mul_mod(const Bignum& a, const Bignum& b, const Bignum& m) {
  return (a * b) % m;
}

Bignum Bignum::mod_exp(const Bignum& base, const Bignum& exp, const Bignum& m) {
  COIN_REQUIRE(!m.is_zero(), "mod_exp: zero modulus");
  // The Montgomery context costs one divmod (R² mod m) to set up; it wins
  // whenever the ladder is long enough to amortize that, which at the
  // multi-limb sizes the VRF uses means any exponent past a machine word.
  if (m.is_odd() && m.limbs_.size() >= 2 &&
      m.limbs_.size() <= MontgomeryCtx::kMaxLimbs && exp.bit_length() > 64) {
    return MontgomeryCtx(m).mod_exp(base, exp);
  }
  return mod_exp_ref(base, exp, m);
}

Bignum Bignum::mod_exp_ref(const Bignum& base, const Bignum& exp,
                           const Bignum& m) {
  COIN_REQUIRE(!m.is_zero(), "mod_exp: zero modulus");
  if (m == Bignum(1)) return Bignum();

  const std::size_t nbits = exp.bit_length();
  Bignum b = base % m;

  // Small exponents: plain left-to-right square-and-multiply.
  if (nbits <= 32) {
    Bignum result(1);
    for (std::size_t i = nbits; i-- > 0;) {
      result = mul_mod(result, result, m);
      if (exp.bit(i)) result = mul_mod(result, b, m);
    }
    return result;
  }

  // Fixed 4-bit window: precompute b^0..b^15, then one multiply per
  // window instead of per set bit (~25% fewer multiplications at the
  // 128-1536 bit sizes the VRF uses).
  constexpr std::size_t kWindow = 4;
  Bignum table[1u << kWindow];
  table[0] = Bignum(1);
  for (std::size_t i = 1; i < (1u << kWindow); ++i)
    table[i] = mul_mod(table[i - 1], b, m);

  // Process the exponent from the most significant window down.
  std::size_t windows = (nbits + kWindow - 1) / kWindow;
  Bignum result(1);
  for (std::size_t w = windows; w-- > 0;) {
    for (std::size_t s = 0; s < kWindow; ++s)
      result = mul_mod(result, result, m);
    std::size_t chunk = 0;
    for (std::size_t s = kWindow; s-- > 0;) {
      chunk <<= 1;
      std::size_t bit_index = w * kWindow + s;
      if (bit_index < nbits && exp.bit(bit_index)) chunk |= 1;
    }
    if (chunk != 0) result = mul_mod(result, table[chunk], m);
  }
  return result;
}

namespace {

// The Jacobi symbol as a binary GCD (Pornin, "Optimized Binary GCD for
// Modular Inversion", IACR ePrint 2020/972), on limb arrays the caller
// owns. The state is (a, b) with b odd and the symbol sought equal to
// (−1)^flip · (a | b). A binary step, when a is odd, swaps a and b if
// a < b and subtracts b from a; then it halves a. The symbol follows
// from low bits alone:
//   halving a multiplies by (2 | b), −1 iff b ≡ ±3 (mod 8);
//   swapping two odd values multiplies by −1 iff both are ≡ 3 (mod 4);
//   subtracting b from a changes nothing.
// Steps run in batches of kJacobiSteps on 64-bit approximations of a and
// b: their top 32 bits and their low 32 bits. Parities and residues mod
// 8 are exact for the whole batch, since step i only needs bits below
// 32 − i. The a < b tests are not: a wrong one leaves a negative value,
// in a or in b but never in both. The batch records its steps as a 2×2
// matrix, and applying it to the full values yields them exactly, with
// their signs. With (x | y) read as (x | |y|) for negative y, the three
// rules above hold unchanged on two's-complement low bits as long as a
// and b are not both negative, so the symbol stays exact; after the
// batch, −a costs the factor (−1 | b) and −b none. Each batch removes at
// least kJacobiSteps − 1 bits from len(a) + len(b) (the paper's bound
// for 32 top bits), and once both fit in one word the exact word loop
// finishes.
constexpr int kJacobiSteps = 30;

// Finishes (−1)^flip · (a | b) for odd b on exact words.
int jacobi_word(u64 a, u64 b, u64 flip) {
  while (a != 0) {
    const int twos = __builtin_ctzll(a);
    a >>= twos;
    flip ^= static_cast<u64>(twos) & ((b >> 1) ^ (b >> 2));
    // Both odd: b ← min(a, b) and a ← |a − b|, reciprocity on a swap.
    const u64 lt = u64{0} - static_cast<u64>(a < b);
    flip ^= lt & (a & b) >> 1;
    const u64 d = a - b;
    b ^= (a ^ b) & lt;
    a = (d ^ lt) - lt;
  }
  return b != 1 ? 0 : (flip & 1) != 0 ? -1 : 1;
}

// out = (f·x + g·y) / 2^kJacobiSteps over len limbs, in two's complement;
// true iff the result is negative. The division is exact, and
// |f| + |g| ≤ 2^kJacobiSteps keeps |out| below max(x, y).
bool jacobi_combine(const u64* x, const u64* y, std::int64_t f,
                    std::int64_t g, u64* out, std::size_t len) {
  using i128 = __int128;
  i128 acc = 0;
  u64 prev = 0;
  for (std::size_t j = 0; j < len; ++j) {
    acc += static_cast<i128>(f) * static_cast<i128>(x[j]) +
           static_cast<i128>(g) * static_cast<i128>(y[j]);
    const auto lo = static_cast<u64>(acc);
    acc >>= 64;  // arithmetic: the signed carry into the next limb
    if (j != 0)
      out[j - 1] = (prev >> kJacobiSteps) | (lo << (64 - kJacobiSteps));
    prev = lo;
  }
  out[len - 1] = (prev >> kJacobiSteps) |
                 (static_cast<u64>(acc) << (64 - kJacobiSteps));
  return acc < 0;
}

// (a | b) for a < b, b odd, both len limbs. `spare` holds 2·len limbs.
int jacobi_limbs(u64* a, u64* b, u64* spare, std::size_t len) {
  u64* na = spare;
  u64* nb = spare + len;
  u64 flip = 0;
  // Each batch shortens len(a) + len(b) ≤ 128·len by at least
  // kJacobiSteps − 1 bits; running past that bound twice over means the
  // arithmetic is broken, which must not become an endless loop.
  std::size_t batches_left = 2 * (128 * len / (kJacobiSteps - 1) + 1);
  for (;;) {
    COIN_REQUIRE(batches_left-- > 0, "jacobi: batches do not converge");
    while (len > 1 && (a[len - 1] | b[len - 1]) == 0) --len;
    if (len == 1) return jacobi_word(a[0], b[0], flip);
    // Top 32 bits from the same position in both, above the low 32.
    const int lz = __builtin_clzll(a[len - 1] | b[len - 1]);
    auto approx = [&](const u64* x) {
      const u64 top = lz == 0 ? x[len - 1]
                              : (x[len - 1] << lz) | (x[len - 2] >> (64 - lz));
      return (top & ~u64{0xffffffff}) | (x[0] & 0xffffffff);
    };
    u64 xa = approx(a), xb = approx(b);
    if (xa == 0 && std::all_of(a, a + len, [](u64 w) { return w == 0; }))
      return 0;  // (0 | b) for b > 1
    // The rows of the batch matrix, each (f, g) packed as f + 2^32·g:
    // a_batch·2^i = fa·a + ga·b, b_batch·2^i = fb·a + gb·b.
    u64 ra = 1, rb = u64{1} << 32;
    // Sign flips collect in bit 1 of `signs`.
    u64 signs = 0;
    for (int i = 0; i < kJacobiSteps; ++i) {
      const u64 odd = u64{0} - (xa & 1);
      const u64 swap = odd & (u64{0} - static_cast<u64>(xa < xb));
      signs ^= swap & xa & xb;  // both ≡ 3 (mod 4)
      const u64 tx = (xa ^ xb) & swap;
      const u64 tr = (ra ^ rb) & swap;
      xa ^= tx;
      xb ^= tx;
      ra ^= tr;
      rb ^= tr;
      xa = (xa - (xb & odd)) >> 1;
      ra -= rb & odd;
      rb <<= 1;
      signs ^= xb ^ (xb >> 1);  // b ≡ ±3 (mod 8)
    }
    flip ^= signs >> 1;
    auto unpack = [](u64 r, std::int64_t& f, std::int64_t& g) {
      g = (static_cast<std::int64_t>(r) + (std::int64_t{1} << 31)) >> 32;
      f = static_cast<std::int64_t>(r - (static_cast<u64>(g) << 32));
    };
    std::int64_t fa, ga, fb, gb;
    unpack(ra, fa, ga);
    unpack(rb, fb, gb);
    // A negative row is recombined with its coefficients negated.
    if (jacobi_combine(a, b, fb, gb, nb, len))
      jacobi_combine(a, b, -fb, -gb, nb, len);
    if (jacobi_combine(a, b, fa, ga, na, len)) {
      jacobi_combine(a, b, -fa, -ga, na, len);
      flip ^= nb[0] >> 1;  // (−1 | b) = −1 iff b ≡ 3 (mod 4)
    }
    std::swap(a, na);
    std::swap(b, nb);
  }
}

}  // namespace

int Bignum::jacobi(const Bignum& a, const Bignum& n) {
  COIN_REQUIRE(n.is_odd(), "jacobi: modulus must be odd > 0");
  // (a | n) depends only on a mod n; only a ≥ n pays for the division.
  Bignum reduced;
  const Bignum* x = &a;
  if (compare(a, n) >= 0) {
    reduced = a % n;
    x = &reduced;
  }
  const std::size_t len = n.limbs_.size();
  auto run = [&](u64* buf) {
    std::copy(x->limbs_.begin(), x->limbs_.end(), buf);
    std::fill(buf + x->limbs_.size(), buf + len, 0);
    std::copy(n.limbs_.begin(), n.limbs_.end(), buf + len);
    return jacobi_limbs(buf, buf + len, buf + 2 * len, len);
  };
  if (len <= MontgomeryCtx::kMaxLimbs) {
    std::array<u64, 4 * MontgomeryCtx::kMaxLimbs> buf;
    return run(buf.data());
  }
  std::vector<u64> buf(4 * len);
  return run(buf.data());
}

Bignum Bignum::gcd(Bignum a, Bignum b) {
  while (!b.is_zero()) {
    Bignum r = a % b;
    a = b;
    b = r;
  }
  return a;
}

Bignum Bignum::mod_inv(const Bignum& a, const Bignum& m) {
  COIN_REQUIRE(!m.is_zero(), "mod_inv: zero modulus");
  // Extended Euclid with signed coefficients tracked as (value, sign).
  Bignum r0 = m, r1 = a % m;
  Bignum t0, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    DivMod dm = divmod(r0, r1);
    // (t0, t1) <- (t1, t0 - q * t1) with sign tracking.
    Bignum qt = dm.quotient * t1;
    Bignum new_t;
    bool new_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt) {
        new_t = t0 - qt;
        new_neg = t0_neg;
      } else {
        new_t = qt - t0;
        new_neg = !t0_neg;
      }
    } else {
      new_t = t0 + qt;
      new_neg = t0_neg;
    }
    t0 = t1;
    t0_neg = t1_neg;
    t1 = new_t;
    t1_neg = new_neg;
    r0 = r1;
    r1 = dm.remainder;
  }
  COIN_REQUIRE(r0 == Bignum(1), "mod_inv: not invertible");
  Bignum inv = t0 % m;
  if (t0_neg && !inv.is_zero()) inv = m - inv;
  return inv;
}

// ---------------------------------------------------------------------------
// Fixed-width Montgomery kernels
// ---------------------------------------------------------------------------

namespace {

// Bits [lo, lo + width) of `limbs` (width < 64); bits past the top read 0.
u64 bits_at(const std::vector<u64>& limbs, std::size_t lo, std::size_t width) {
  const std::size_t i = lo / 64, s = lo % 64;
  if (i >= limbs.size()) return 0;
  u64 v = limbs[i] >> s;
  if (s != 0 && s + width > 64 && i + 1 < limbs.size())
    v |= limbs[i + 1] << (64 - s);
  return v & ((u64{1} << width) - 1);
}

// Pippenger window width by term count: bucket folding costs 2·(2^c − 1)
// multiplies per window, so the window only widens once enough terms
// share it. Break-evens are the usual k ≈ 2^(c+1) rule of thumb.
std::size_t pippenger_window(std::size_t terms) {
  if (terms < 32) return 3;
  if (terms < 128) return 4;
  if (terms < 512) return 5;
  if (terms < 2048) return 6;
  return 7;
}

// Column c of a comb walk multiplies in the table entry whose bit t is
// bit t·span + c of the exponent.
constexpr std::size_t kMaxCombSpan =
    64 * MontgomeryCtx::kMaxLimbs / CombTable::kTeeth;
using ColumnDigits = std::array<std::uint8_t, kMaxCombSpan>;
static_assert(CombTable::kTeeth <= 8, "a column digit is one byte");

void comb_digits(const Bignum& e, std::size_t span, ColumnDigits& out) {
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(span), 0);
  const std::vector<u64>& el = e.limbs();
  const std::size_t bits = 64 * el.size();
  for (std::size_t t = 0; t < CombTable::kTeeth; ++t) {
    const std::size_t end = std::min(bits, (t + 1) * span);
    for (std::size_t pos = t * span; pos < end; ++pos)
      out[pos - t * span] |=
          static_cast<std::uint8_t>(((el[pos / 64] >> (pos % 64)) & 1) << t);
  }
}

// The instantiated widths. A modulus of k limbs runs on the first width
// >= k, its top limbs zero: REDC is exact for any R = 2^(64·W) > m, so
// values never depend on the width, only the cost does. The production
// groups (64/96/128/256/768/1536 bits) land on exact widths.
constexpr std::size_t kWidths[] = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32};
static_assert(kWidths[std::size(kWidths) - 1] == MontgomeryCtx::kMaxLimbs);

}  // namespace

namespace detail {

// The ladders of one MontgomeryCtx. Each derived kernel is compiled for
// one limb width; tables cross this interface as flat limb vectors of
// width() limbs per entry, Montgomery form.
class MontKernel {
 public:
  MontKernel() = default;
  MontKernel(const MontKernel&) = delete;
  MontKernel& operator=(const MontKernel&) = delete;
  virtual ~MontKernel() = default;
  virtual std::size_t width() const = 0;
  virtual Bignum to_mont(const Bignum& a) const = 0;
  virtual Bignum from_mont(const Bignum& a) const = 0;
  virtual Bignum mont_mul(const Bignum& a, const Bignum& b) const = 0;
  virtual Bignum mont_sqr(const Bignum& a) const = 0;
  virtual Bignum mul(const Bignum& a, const Bignum& b) const = 0;
  virtual Bignum mod_exp(const Bignum& base, const Bignum& exp) const = 0;
  virtual Bignum dual_exp(const Bignum& a, const Bignum& ea, const Bignum& b,
                          const Bignum& eb) const = 0;
  virtual Bignum multi_exp(std::span<const MultiExpTerm> terms) const = 0;
  // The 2^CombTable::kTeeth comb entries for `base` at tooth spacing
  // `span`.
  virtual std::vector<u64> comb_table(const Bignum& base,
                                      std::size_t span) const = 0;
  // base^e from a comb_table() (e < 2^(kTeeth·span)).
  virtual Bignum comb_exp(const std::vector<u64>& table, std::size_t span,
                          const Bignum& e) const = 0;
  // {base^e1, base^e2} from one walk over a comb_table().
  virtual std::pair<Bignum, Bignum> comb_exp2(const std::vector<u64>& table,
                                              std::size_t span,
                                              const Bignum& e1,
                                              const Bignum& e2) const = 0;
};

}  // namespace detail

namespace {

template <std::size_t N>
class FixedKernel final : public detail::MontKernel {
 public:
  using Vec = std::array<u64, N>;

  explicit FixedKernel(const Bignum& m) : m_big_(m) {
    std::copy(m.limbs().begin(), m.limbs().end(), m_.begin());
    // n0inv = -m⁻¹ mod 2⁶⁴ by Newton/Hensel lifting: x ← x·(2 − m₀·x)
    // doubles the number of correct low bits each step; 6 steps cover 64.
    const u64 m0 = m_[0];
    u64 x = m0;  // correct to 3 bits (m0 odd)
    for (int i = 0; i < 6; ++i) x *= 2 - m0 * x;
    n0inv_ = ~x + 1;
    // R mod m and R² mod m via the division path, once per context.
    const Bignum r = (Bignum(1) << (64 * N)) % m;
    one_ = load(r);
    r2_ = load((r * r) % m);
  }

  std::size_t width() const override { return N; }

  Bignum to_mont(const Bignum& a) const override { return store(enter(a)); }
  Bignum from_mont(const Bignum& a) const override {
    return store(leave(load(a)));
  }
  Bignum mont_mul(const Bignum& a, const Bignum& b) const override {
    Vec out{};
    mul(load(a), load(b), out);
    return store(out);
  }
  Bignum mont_sqr(const Bignum& a) const override {
    Vec out{};
    sqr(load(a), out);
    return store(out);
  }
  Bignum mul(const Bignum& a, const Bignum& b) const override {
    Vec out{};
    mul(enter(a), load(b), out);  // (a·R)·b·R⁻¹ = a·b
    return store(out);
  }

  Bignum mod_exp(const Bignum& base, const Bignum& exp) const override {
    if (exp.is_zero()) return store(leave(one_));  // 0^0 = 1 convention
    return store(leave(pow(enter(base), exp)));
  }

  Bignum dual_exp(const Bignum& a, const Bignum& ea, const Bignum& b,
                  const Bignum& eb) const override {
    return store(leave(dual(enter(a), ea, enter(b), eb)));
  }

  Bignum multi_exp(std::span<const MultiExpTerm> terms) const override {
    // Below the bucket break-even, chain Straus pairs: every pair still
    // shares its squarings, and the pairwise products combine in
    // Montgomery form.
    if (terms.size() < 8) {
      Vec acc = one_;
      std::size_t i = 0;
      for (; i + 1 < terms.size(); i += 2)
        mul(acc, dual(enter(terms[i].base), terms[i].exp,
                      enter(terms[i + 1].base), terms[i + 1].exp), acc);
      if (i < terms.size())
        mul(acc, pow(enter(terms[i].base), terms[i].exp), acc);
      return store(leave(acc));
    }
    return store(leave(pippenger(terms)));
  }

  std::vector<u64> comb_table(const Bignum& base,
                              std::size_t span) const override {
    constexpr std::size_t kTeeth = CombTable::kTeeth;
    constexpr std::size_t kEntries = std::size_t{1} << kTeeth;
    std::vector<u64> table(kEntries * N);
    auto entry = [&](std::size_t s) { return table.data() + s * N; };
    std::copy(one_.begin(), one_.end(), entry(0));
    // Entry 2^i is tooth i = base^(2^(i·span)): `span` squarings of the
    // previous tooth.
    Vec tooth = enter(base);
    for (std::size_t i = 0; i < kTeeth; ++i) {
      if (i != 0)
        for (std::size_t s = 0; s < span; ++s) sqr(tooth, tooth);
      std::copy(tooth.begin(), tooth.end(), entry(std::size_t{1} << i));
    }
    // Every other entry extends the entry without its lowest set bit.
    for (std::size_t s = 1; s < kEntries; ++s) {
      const std::size_t low = s & (~s + 1);
      if (s != low) mul(entry(s - low), entry(low), entry(s));
    }
    return table;
  }

  Bignum comb_exp(const std::vector<u64>& table, std::size_t span,
                  const Bignum& e) const override {
    ColumnDigits digits;
    comb_digits(e, span, digits);
    Vec r = one_;
    for (std::size_t col = span; col-- > 0;) {
      sqr(r, r);
      if (digits[col] != 0)
        mul(r.data(), table.data() + digits[col] * N, r.data());
    }
    return store(leave(r));
  }

  std::pair<Bignum, Bignum> comb_exp2(const std::vector<u64>& table,
                                      std::size_t span, const Bignum& e1,
                                      const Bignum& e2) const override {
    ColumnDigits d1, d2;
    comb_digits(e1, span, d1);
    comb_digits(e2, span, d2);
    // Two independent chains in one loop: each multiply of one overlaps
    // the other's in the pipeline.
    Vec r1 = one_, r2 = one_;
    for (std::size_t col = span; col-- > 0;) {
      sqr(r1, r1);
      sqr(r2, r2);
      if (d1[col] != 0) mul(r1.data(), table.data() + d1[col] * N, r1.data());
      if (d2[col] != 0) mul(r2.data(), table.data() + d2[col] * N, r2.data());
    }
    return {store(leave(r1)), store(leave(r2))};
  }

 private:
  // a mod m, zero-padded to N limbs.
  Vec load(const Bignum& a) const {
    Vec v{};
    if (Bignum::compare(a, m_big_) < 0) {
      std::copy(a.limbs().begin(), a.limbs().end(), v.begin());
    } else {
      const Bignum r = a % m_big_;
      std::copy(r.limbs().begin(), r.limbs().end(), v.begin());
    }
    return v;
  }
  static Bignum store(const Vec& v) { return Bignum::from_limbs(v); }

  Vec enter(const Bignum& a) const {
    Vec out{};
    mul(load(a), r2_, out);
    return out;
  }
  Vec leave(const Vec& a) const {
    Vec one{}, out{};
    one[0] = 1;
    mul(a, one, out);
    return out;
  }

  // (c2:acc) += x·y: one product into a column's 192-bit accumulator.
  static void mac(u64 x, u64 y, u128& acc, u64& c2) {
    const u128 p = static_cast<u128>(x) * y;
    acc += p;
    c2 += acc < p;
  }
  // Moves to the next column: the accumulator shifts down one limb.
  static void next_column(u128& acc, u64& c2) {
    acc = (acc >> 64) | (static_cast<u128>(c2) << 64);
    c2 = 0;
  }

  // out = a·b·R⁻¹ mod m. Product scanning with the reduction folded into
  // the same columns: column k sums every a[i]·b[k−i] and q[i]·m[k−i],
  // and for k < N picks q[k] so the column's low limb cancels. The
  // column products are independent multiplies into one accumulator, so
  // the carry chain is per column rather than per product. `out` may
  // alias either operand: it is written only after the last read.
  void mul(const u64* a, const u64* b, u64* out) const {
    u64 q[N] = {}, r[N] = {};
    u128 acc = 0;
    u64 c2 = 0;
    for (std::size_t k = 0; k < N; ++k) {
      for (std::size_t i = 0; i <= k; ++i) mac(a[i], b[k - i], acc, c2);
      for (std::size_t i = 0; i < k; ++i) mac(q[i], m_[k - i], acc, c2);
      q[k] = static_cast<u64>(acc) * n0inv_;
      mac(q[k], m_[0], acc, c2);  // the low limb is now zero
      next_column(acc, c2);
    }
    for (std::size_t k = N; k < 2 * N - 1; ++k) {
      for (std::size_t i = k - N + 1; i < N; ++i) {
        mac(a[i], b[k - i], acc, c2);
        mac(q[i], m_[k - i], acc, c2);
      }
      r[k - N] = static_cast<u64>(acc);
      next_column(acc, c2);
    }
    r[N - 1] = static_cast<u64>(acc);
    reduce_once(r, static_cast<u64>(acc >> 64), out);
  }
  void mul(const Vec& a, const Vec& b, Vec& out) const {
    mul(a.data(), b.data(), out.data());
  }

  // out = a²·R⁻¹ mod m. A dedicated squaring (cross products once, then
  // doubled) measured no faster than mul's columns, so squaring is mul.
  void sqr(const Vec& a, Vec& out) const {
    mul(a.data(), a.data(), out.data());
  }

  // out = x − m if (overflow, x) >= m, else x; x < 2m. Branch-free: the
  // subtraction always runs and a mask picks the result.
  void reduce_once(const u64* x, u64 overflow, u64* out) const {
    u64 d[N] = {};
    u64 borrow = 0;
    for (std::size_t i = 0; i < N; ++i) {
      const u128 diff = static_cast<u128>(x[i]) - m_[i] - borrow;
      d[i] = static_cast<u64>(diff);
      borrow = static_cast<u64>(diff >> 64) & 1;
    }
    const u64 keep = u64{0} - (borrow & static_cast<u64>(overflow == 0));
    for (std::size_t i = 0; i < N; ++i) out[i] = (x[i] & keep) | (d[i] & ~keep);
  }

  // b^e in Montgomery form (b in Montgomery form): 4-bit fixed window,
  // one multiply per window.
  Vec pow(const Vec& b, const Bignum& e) const {
    constexpr std::size_t kWindow = 4;
    Vec table[1u << kWindow] = {};
    table[0] = one_;
    table[1] = b;
    for (std::size_t i = 2; i < (1u << kWindow); ++i)
      mul(table[i - 1], b, table[i]);
    const std::vector<u64>& el = e.limbs();
    Vec r = one_;
    for (std::size_t w = (e.bit_length() + kWindow - 1) / kWindow; w-- > 0;) {
      for (std::size_t s = 0; s < kWindow; ++s) sqr(r, r);
      const u64 chunk = bits_at(el, w * kWindow, kWindow);
      if (chunk != 0) mul(r, table[chunk], r);
    }
    return r;
  }

  // a^ea · b^eb in Montgomery form: one shared-squaring ladder over both
  // exponents with 3-bit windows each, indexing a 64-entry table of
  // aⁱ·bʲ (i, j ≤ 7). Versus two independent ladders this halves the
  // squarings, and the wide window amortizes the table build across
  // ~nbits/3 joint multiplies.
  Vec dual(const Vec& a, const Bignum& ea, const Vec& b,
           const Bignum& eb) const {
    constexpr std::size_t kWindow = 3;
    constexpr std::size_t kSide = 1u << kWindow;
    // table[(i << kWindow) | j] = aⁱ · bʲ.
    Vec table[kSide * kSide] = {};
    table[0] = one_;
    table[1] = b;
    table[kSide] = a;
    for (std::size_t i = 2; i < kSide * kSide; ++i) {
      if (i == kSide) continue;
      if (i >= kSide) {
        mul(table[i - kSide], a, table[i]);  // bump the a-power
      } else {
        mul(table[i - 1], b, table[i]);  // bump the b-power
      }
    }
    const std::size_t nbits = std::max(ea.bit_length(), eb.bit_length());
    Vec r = one_;
    for (std::size_t w = (nbits + kWindow - 1) / kWindow; w-- > 0;) {
      for (std::size_t s = 0; s < kWindow; ++s) sqr(r, r);
      const std::size_t lo = kWindow * w;
      const u64 idx = (bits_at(ea.limbs(), lo, kWindow) << kWindow) |
                      bits_at(eb.limbs(), lo, kWindow);
      if (idx != 0) mul(r, table[idx], r);
    }
    return r;
  }

  // Π termᵢ in Montgomery form by Pippenger's bucket method.
  Vec pippenger(std::span<const MultiExpTerm> terms) const {
    std::size_t nbits = 0;
    for (const MultiExpTerm& t : terms)
      nbits = std::max(nbits, t.exp.bit_length());
    std::vector<Vec> bases(terms.size());
    for (std::size_t i = 0; i < terms.size(); ++i)
      bases[i] = enter(terms[i].base);

    const std::size_t c = pippenger_window(terms.size());
    const std::size_t nbuckets = (std::size_t{1} << c) - 1;  // digit d → [d-1]
    std::vector<Vec> bucket(nbuckets);
    std::vector<char> bucket_set(nbuckets);
    Vec r = one_;
    bool started = false;  // r is still the identity
    for (std::size_t w = (nbits + c - 1) / c; w-- > 0;) {
      if (started)
        for (std::size_t s = 0; s < c; ++s) sqr(r, r);

      // Deposit every term into the bucket of its digit at this window;
      // all terms share the one squaring chain above.
      std::fill(bucket_set.begin(), bucket_set.end(), 0);
      for (std::size_t i = 0; i < terms.size(); ++i) {
        const u64 digit = bits_at(terms[i].exp.limbs(), w * c, c);
        if (digit == 0) continue;
        if (!bucket_set[digit - 1]) {
          bucket[digit - 1] = bases[i];
          bucket_set[digit - 1] = 1;
        } else {
          mul(bucket[digit - 1], bases[i], bucket[digit - 1]);
        }
      }

      // Running-product fold: with run_d = Π_{e ≥ d} B_e, the window
      // value Π_d B_d^d equals Π_d run_d — 2·(2^c − 1) multiplies.
      Vec run{}, win{};
      bool have_run = false, have_win = false;
      for (std::size_t d = nbuckets; d-- > 0;) {
        if (bucket_set[d]) {
          if (have_run) {
            mul(run, bucket[d], run);
          } else {
            run = bucket[d];
            have_run = true;
          }
        }
        if (have_run) {
          if (have_win) {
            mul(win, run, win);
          } else {
            win = run;
            have_win = true;
          }
        }
      }
      if (have_win) {
        if (started) {
          mul(r, win, r);
        } else {
          r = win;
          started = true;
        }
      }
    }
    return r;
  }

  Bignum m_big_;
  Vec m_{};
  u64 n0inv_ = 0;
  Vec r2_{};   // R² mod m (the to-Montgomery multiplier)
  Vec one_{};  // R mod m (Montgomery form of 1)
};

template <std::size_t... I>
std::shared_ptr<const detail::MontKernel> make_kernel(
    const Bignum& m, std::size_t width, std::index_sequence<I...>) {
  std::shared_ptr<const detail::MontKernel> k;
  ((width == kWidths[I]
        ? (void)(k = std::make_shared<const FixedKernel<kWidths[I]>>(m))
        : (void)0),
   ...);
  return k;
}

}  // namespace

// ---------------------------------------------------------------------------
// MontgomeryCtx
// ---------------------------------------------------------------------------

MontgomeryCtx::MontgomeryCtx(const Bignum& m) : m_(m), k_(m.limbs().size()) {
  COIN_REQUIRE(m.is_odd() && m > Bignum(1),
               "MontgomeryCtx: modulus must be odd and > 1");
  COIN_REQUIRE(k_ <= kMaxLimbs, "MontgomeryCtx: modulus wider than kMaxLimbs");
  const std::size_t width = *std::lower_bound(std::begin(kWidths),
                                              std::end(kWidths), k_);
  kernel_ = make_kernel(m, width,
                        std::make_index_sequence<std::size(kWidths)>{});
}

std::span<const std::size_t> MontgomeryCtx::kernel_widths() { return kWidths; }

std::size_t MontgomeryCtx::kernel_width() const { return kernel_->width(); }

Bignum MontgomeryCtx::to_mont(const Bignum& a) const {
  return kernel_->to_mont(a);
}

Bignum MontgomeryCtx::from_mont(const Bignum& a) const {
  return kernel_->from_mont(a);
}

Bignum MontgomeryCtx::mont_mul(const Bignum& a, const Bignum& b) const {
  return kernel_->mont_mul(a, b);
}

Bignum MontgomeryCtx::mont_sqr(const Bignum& a) const {
  return kernel_->mont_sqr(a);
}

Bignum MontgomeryCtx::mul(const Bignum& a, const Bignum& b) const {
  return kernel_->mul(a, b);
}

Bignum MontgomeryCtx::mod_exp(const Bignum& base, const Bignum& exp) const {
  return kernel_->mod_exp(base, exp);
}

Bignum MontgomeryCtx::dual_exp(const Bignum& a, const Bignum& ea,
                               const Bignum& b, const Bignum& eb) const {
  return kernel_->dual_exp(a, ea, b, eb);
}

Bignum MontgomeryCtx::multi_exp(std::span<const MultiExpTerm> terms) const {
  return kernel_->multi_exp(terms);
}

// ---------------------------------------------------------------------------
// CombTable
// ---------------------------------------------------------------------------

CombTable::CombTable(std::shared_ptr<const MontgomeryCtx> ctx,
                     const Bignum& base, std::size_t max_exp_bits)
    : ctx_(std::move(ctx)), base_(base) {
  COIN_REQUIRE(ctx_ != nullptr, "CombTable: null context");
  COIN_REQUIRE(max_exp_bits <= kTeeth * kMaxCombSpan,
               "CombTable: exponent width past 64·kMaxLimbs bits");
  max_bits_ = std::max<std::size_t>(max_exp_bits, kTeeth);
  span_ = (max_bits_ + kTeeth - 1) / kTeeth;
  table_ = ctx_->kernel_->comb_table(base_, span_);
}

Bignum CombTable::exp(const Bignum& e) const {
  if (e.bit_length() > max_bits_) return ctx_->mod_exp(base_, e);
  return ctx_->kernel_->comb_exp(table_, span_, e);
}

std::pair<Bignum, Bignum> CombTable::exp2(const Bignum& e1,
                                          const Bignum& e2) const {
  if (e1.bit_length() > max_bits_ || e2.bit_length() > max_bits_)
    return {exp(e1), exp(e2)};
  return ctx_->kernel_->comb_exp2(table_, span_, e1, e2);
}

}  // namespace coincidence::crypto
