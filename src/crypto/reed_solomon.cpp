#include "crypto/reed_solomon.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/errors.h"
#include "crypto/kernels.h"

namespace coincidence::crypto {

namespace gf256 {
namespace {

// log/exp tables for the primitive element 0x02 modulo x^8+x^4+x^3+x^2+1.
// exp_ is doubled so mul can skip the mod-255 reduction on the sum.
// nibble[w] holds the split-nibble product tables of weight w: [0, 16)
// is w·x for x < 16, [16, 32) is w·(x << 4), so w·b is the xor of
// nibble[w][b & 15] and nibble[w][16 + (b >> 4)].
struct Tables {
  std::uint8_t log[256];
  std::uint8_t exp[510];
  alignas(32) std::uint8_t nibble[256][32];

  Tables() {
    std::uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      exp[i + 255] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    log[0] = 0;  // never read: mul/inv guard zero explicitly
    for (int w = 0; w < 256; ++w) {
      for (int v = 0; v < 16; ++v) {
        nibble[w][v] = product(w, v);
        nibble[w][16 + v] = product(w, v << 4);
      }
    }
  }

  std::uint8_t product(int a, int b) const {
    if (a == 0 || b == 0) return 0;
    return exp[log[a] + log[b]];
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  return tables().product(a, b);
}

std::uint8_t inv(std::uint8_t a) {
  COIN_REQUIRE(a != 0, "gf256::inv: zero has no inverse");
  const Tables& t = tables();
  return t.exp[255 - t.log[a]];
}

}  // namespace gf256

namespace detail {

void gf256_mul_acc_scalar(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t len, std::uint8_t w) {
  const std::uint8_t* lo = gf256::tables().nibble[w];
  const std::uint8_t* hi = lo + 16;
  for (std::size_t j = 0; j < len; ++j)
    dst[j] ^= lo[src[j] & 0x0f] ^ hi[src[j] >> 4];
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

// 32 products per step: pshufb looks each nibble up in the weight's
// 16-entry table (broadcast to both lanes); the scalar kernel finishes
// the tail with the same tables.
__attribute__((target("avx2"))) void gf256_mul_acc_avx2_impl(
    std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
    std::uint8_t w) {
  const std::uint8_t* lo = gf256::tables().nibble[w];
  const __m256i tlo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(lo)));
  const __m256i thi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(lo + 16)));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t j = 0;
  for (; j + 32 <= len; j += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + j));
    const __m256i p = _mm256_xor_si256(
        _mm256_shuffle_epi8(tlo, _mm256_and_si256(x, mask)),
        _mm256_shuffle_epi8(thi,
                            _mm256_and_si256(_mm256_srli_epi64(x, 4), mask)));
    __m256i* out = reinterpret_cast<__m256i*>(dst + j);
    _mm256_storeu_si256(out, _mm256_xor_si256(_mm256_loadu_si256(out), p));
  }
  gf256_mul_acc_scalar(dst + j, src + j, len - j, w);
}

}  // namespace

Gf256MulAccFn gf256_mul_acc_avx2() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported ? &gf256_mul_acc_avx2_impl : nullptr;
}

#else

Gf256MulAccFn gf256_mul_acc_avx2() { return nullptr; }

#endif

Gf256MulAccFn gf256_mul_acc() {
  static const Gf256MulAccFn chosen = [] {
    const Gf256MulAccFn fast = gf256_mul_acc_avx2();
    return fast != nullptr ? fast : &gf256_mul_acc_scalar;
  }();
  return chosen;
}

}  // namespace detail

ReedSolomon::ReedSolomon(std::size_t n, std::size_t k) : n_(n), k_(k) {
  COIN_REQUIRE(k >= 1 && k <= n, "ReedSolomon: requires 1 <= k <= n");
  COIN_REQUIRE(n <= 255, "ReedSolomon: GF(2^8) caps n at 255 fragments");
  std::vector<std::uint8_t> data_xs(k_);
  for (std::size_t m = 0; m < k_; ++m)
    data_xs[m] = static_cast<std::uint8_t>(m);
  parity_rows_.reserve(n_ - k_);
  for (std::size_t i = k_; i < n_; ++i)
    parity_rows_.push_back(
        lagrange_row(data_xs, static_cast<std::uint8_t>(i)));
}

std::vector<std::uint8_t> ReedSolomon::lagrange_row(
    const std::vector<std::uint8_t>& xs, std::uint8_t target) const {
  const std::size_t k = xs.size();
  std::vector<std::uint8_t> row(k);
  for (std::size_t s = 0; s < k; ++s) {
    // c_s = Π_{l≠s} (target − x_l) / (x_s − x_l); in GF(2^8) subtraction
    // is xor, and target never coincides with an interpolation point.
    std::uint8_t num = 1;
    std::uint8_t den = 1;
    for (std::size_t l = 0; l < k; ++l) {
      if (l == s) continue;
      num = gf256::mul(num, target ^ xs[l]);
      den = gf256::mul(den, xs[s] ^ xs[l]);
    }
    row[s] = gf256::mul(num, gf256::inv(den));
  }
  return row;
}

std::vector<Bytes> ReedSolomon::encode(BytesView value) const {
  const std::size_t len = fragment_size(value.size());
  std::vector<Bytes> fragments(n_);
  for (std::size_t m = 0; m < k_; ++m) {
    fragments[m].assign(len, 0);
    const std::size_t off = m * len;
    const std::size_t avail =
        off < value.size() ? std::min(len, value.size() - off) : 0;
    std::copy_n(value.begin() + static_cast<std::ptrdiff_t>(off), avail,
                fragments[m].begin());
  }
  const detail::Gf256MulAccFn mul_acc = detail::gf256_mul_acc();
  for (std::size_t i = k_; i < n_; ++i) {
    const std::vector<std::uint8_t>& row = parity_rows_[i - k_];
    Bytes& out = fragments[i];
    out.assign(len, 0);
    for (std::size_t m = 0; m < k_; ++m) {
      if (row[m] == 0) continue;
      mul_acc(out.data(), fragments[m].data(), len, row[m]);
    }
  }
  return fragments;
}

Bytes ReedSolomon::decode(
    const std::vector<std::pair<std::size_t, Bytes>>& fragments,
    std::size_t value_size) const {
  std::vector<std::pair<std::size_t, BytesView>> views;
  views.reserve(fragments.size());
  for (const auto& [idx, frag] : fragments) views.emplace_back(idx, frag);
  return decode(views, value_size);
}

Bytes ReedSolomon::decode(
    std::span<const std::pair<std::size_t, BytesView>> fragments,
    std::size_t value_size) const {
  if (fragments.size() != k_)
    throw CodecError("ReedSolomon::decode: needs exactly k fragments");
  const std::size_t len = fragment_size(value_size);
  std::vector<bool> seen(n_, false);
  std::vector<std::uint8_t> xs(k_);
  for (std::size_t s = 0; s < k_; ++s) {
    const auto& [idx, frag] = fragments[s];
    if (idx >= n_)
      throw CodecError("ReedSolomon::decode: fragment index out of range");
    if (seen[idx])
      throw CodecError("ReedSolomon::decode: duplicate fragment index");
    seen[idx] = true;
    if (frag.size() != len)
      throw CodecError("ReedSolomon::decode: fragment length mismatch");
    xs[s] = static_cast<std::uint8_t>(idx);
  }

  Bytes value(value_size, 0);
  const detail::Gf256MulAccFn mul_acc = detail::gf256_mul_acc();
  for (std::size_t m = 0; m < k_; ++m) {
    const std::size_t off = m * len;
    if (off >= value_size && value_size != 0) break;
    const std::size_t take =
        value_size == 0 ? 0 : std::min(len, value_size - off);
    if (seen[m]) {
      // Systematic fragment present: copy it straight through.
      for (std::size_t s = 0; s < k_; ++s)
        if (fragments[s].first == m)
          std::copy_n(fragments[s].second.begin(), take,
                      value.begin() + static_cast<std::ptrdiff_t>(off));
      continue;
    }
    const std::vector<std::uint8_t> row =
        lagrange_row(xs, static_cast<std::uint8_t>(m));
    for (std::size_t s = 0; s < k_; ++s)
      mul_acc(value.data() + off, fragments[s].second.data(), take, row[s]);
  }
  return value;
}

}  // namespace coincidence::crypto
