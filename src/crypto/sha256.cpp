#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/errors.h"
#include "crypto/kernels.h"

namespace coincidence::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace detail {

void sha256_blocks_scalar(std::uint32_t state[8], const std::uint8_t* data,
                          std::size_t blocks) {
  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

// The SHA-NI extensions keep the working variables as two lanes of four,
// ABEF and CDGH. Each 4-round group adds the round constants to four
// schedule words and issues two sha256rnds2 (two rounds each); the
// schedule for groups 4..15 is sha256msg1/msg2 over the previous four.
__attribute__((target("sha,sse4.1"))) void sha256_blocks_shani_impl(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            kByteSwap);
      } else {
        // W[t] = W[t-16] + σ0(W[t-15]) + W[t-7] + σ1(W[t-2]) for the
        // four t of this group: msg1 supplies the first two terms, the
        // alignr the third, msg2 the σ1 term.
        const __m128i prev = w[(g + 3) & 3];
        const __m128i t7 = _mm_alignr_epi8(prev, w[(g + 2) & 3], 4);
        cur = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(cur, w[(g + 1) & 3]), t7),
            prev);
      }
      const __m128i k =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * g));
      const __m128i wk = _mm_add_epi32(cur, k);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool sse41 = (c & bit_SSSE3) && (c & bit_SSE4_1);
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return sse41 && (b & bit_SHA);
}

}  // namespace

Sha256BlocksFn sha256_blocks_shani() {
  static const bool supported = cpu_has_sha_ni();
  return supported ? &sha256_blocks_shani_impl : nullptr;
}

#else

Sha256BlocksFn sha256_blocks_shani() { return nullptr; }

#endif

Sha256BlocksFn sha256_blocks() {
  static const Sha256BlocksFn chosen = [] {
    const Sha256BlocksFn fast = sha256_blocks_shani();
    return fast != nullptr ? fast : &sha256_blocks_scalar;
  }();
  return chosen;
}

}  // namespace detail

Sha256::Sha256() {
  std::memcpy(state_.data(), kInit, sizeof(kInit));
}

void Sha256::update(BytesView data) {
  COIN_REQUIRE(!finished_, "Sha256: update after finish");
  // An empty view may carry a null pointer, which memcpy must not get.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t off = 0;
  const detail::Sha256BlocksFn compress = detail::sha256_blocks();
  if (buffer_len_ > 0) {
    std::size_t take = std::min(kSha256BlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off += take;
    if (buffer_len_ == kSha256BlockSize) {
      compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - off) / kSha256BlockSize) {
    compress(state_.data(), data.data() + off, blocks);
    off += blocks * kSha256BlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

Digest Sha256::finish() {
  COIN_REQUIRE(!finished_, "Sha256: finish called twice");
  finished_ = true;

  std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[kSha256BlockSize * 2] = {0x80};
  // Pad to 56 mod 64, then append the 64-bit big-endian length.
  std::size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_)
                                           : (120 - buffer_len_);
  std::uint8_t len_be[8];
  for (int i = 7; i >= 0; --i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len & 0xff);
    bit_len >>= 8;
  }

  finished_ = false;  // allow the two internal updates below
  update(BytesView(pad, pad_len));
  update(BytesView(len_be, 8));
  finished_ = true;
  COIN_REQUIRE(buffer_len_ == 0, "Sha256: padding error");

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Bytes sha256_bytes(BytesView data) {
  Digest d = sha256(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace coincidence::crypto
