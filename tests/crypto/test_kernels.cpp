// Fast-path kernels against their scalar oracles (crypto/kernels.h).
//
// The accelerated SHA-256 compression and GF(2^8) multiply-accumulate
// must compute exactly the bytes of the scalar code they replace; a
// host without the instructions skips those comparisons and runs the
// scalar checks alone.
#include "crypto/kernels.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "crypto/reed_solomon.h"
#include "crypto/sha256.h"

namespace coincidence::crypto {
namespace {

using detail::Gf256MulAccFn;
using detail::Sha256BlocksFn;

constexpr std::uint32_t kInitState[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// FIPS 180-4 padding driven straight through one compression kernel,
// independent of Sha256's buffering.
Digest digest_with(Sha256BlocksFn compress, BytesView msg) {
  std::uint32_t state[8];
  std::memcpy(state, kInitState, sizeof(state));
  const std::size_t full = msg.size() / kSha256BlockSize;
  compress(state, msg.data(), full);
  Bytes tail(msg.begin() + static_cast<std::ptrdiff_t>(full * kSha256BlockSize),
             msg.end());
  tail.push_back(0x80);
  while (tail.size() % kSha256BlockSize != 56) tail.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i)
    tail.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  compress(state, tail.data(), tail.size() / kSha256BlockSize);
  Digest out;
  for (int i = 0; i < 8; ++i)
    for (int b = 0; b < 4; ++b)
      out[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
  return out;
}

std::string hex(const Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

Bytes random_bytes(Rng& rng, std::size_t size) {
  Bytes out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

// The same bytes at a chosen misalignment inside a larger buffer.
struct Unaligned {
  Unaligned(BytesView data, std::size_t offset)
      : storage(data.size() + offset + 1, 0xa5), off(offset) {
    std::copy(data.begin(), data.end(), storage.begin() +
                                            static_cast<std::ptrdiff_t>(off));
  }
  BytesView view(std::size_t size) const {
    return BytesView(storage.data() + off, size);
  }
  Bytes storage;
  std::size_t off;
};

TEST(Sha256Kernels, ScalarMatchesNistVectors) {
  const Sha256BlocksFn scalar = &detail::sha256_blocks_scalar;
  EXPECT_EQ(hex(digest_with(scalar, {})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(digest_with(scalar, bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex(digest_with(scalar, bytes_of("abcdbcdecdefdefgefghfghighijhijkijk"
                                       "ljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Kernels, ShaNiMatchesNistVectors) {
  const Sha256BlocksFn fast = detail::sha256_blocks_shani();
  if (fast == nullptr) GTEST_SKIP() << "CPU lacks SHA-NI";
  EXPECT_EQ(hex(digest_with(fast, {})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(digest_with(fast, bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex(digest_with(fast, bytes_of("abcdbcdecdefdefgefghfghighijhijkijk"
                                     "ljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  const Bytes million(1000000, 'a');
  EXPECT_EQ(hex(digest_with(fast, million)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Kernels, ShaNiCompressionMatchesScalar) {
  const Sha256BlocksFn fast = detail::sha256_blocks_shani();
  if (fast == nullptr) GTEST_SKIP() << "CPU lacks SHA-NI";
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t a[8], b[8];
    for (auto& word : a) word = static_cast<std::uint32_t>(rng.next_u64());
    std::memcpy(b, a, sizeof(a));
    const std::size_t blocks = rng.next_u64() % 9;
    const Bytes data = random_bytes(rng, blocks * kSha256BlockSize);
    const Unaligned buf(data, rng.next_u64() % 16);
    detail::sha256_blocks_scalar(a, buf.view(data.size()).data(), blocks);
    fast(b, buf.view(data.size()).data(), blocks);
    ASSERT_EQ(0, std::memcmp(a, b, sizeof(a)))
        << "trial " << trial << ", " << blocks << " blocks";
  }
}

// Sha256 (the dispatched kernel behind random update splits over
// misaligned input) against the scalar oracle, and the SHA-NI kernel
// against the same oracle when the CPU has it.
TEST(Sha256Kernels, SeededFuzzMatchesScalarOracle) {
  const Sha256BlocksFn fast = detail::sha256_blocks_shani();
  Rng rng(43);
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t len =
        trial <= 160 ? static_cast<std::size_t>(trial) : rng.next_u64() % 4097;
    const Bytes msg = random_bytes(rng, len);
    const Unaligned buf(msg, rng.next_u64() % 16);
    const BytesView view = buf.view(len);
    const Digest oracle = digest_with(&detail::sha256_blocks_scalar, view);

    Sha256 h;
    std::size_t off = 0;
    while (off < len) {
      const std::size_t take = 1 + rng.next_u64() % (len - off);
      h.update(view.subspan(off, take));
      off += take;
    }
    ASSERT_EQ(hex(h.finish()), hex(oracle)) << "len " << len;
    if (fast != nullptr)
      ASSERT_EQ(hex(digest_with(fast, view)), hex(oracle)) << "len " << len;
  }
}

TEST(Sha256Kernels, DispatchPrefersShaNiElseScalar) {
  const Sha256BlocksFn fast = detail::sha256_blocks_shani();
  EXPECT_EQ(detail::sha256_blocks(),
            fast != nullptr ? fast : &detail::sha256_blocks_scalar);
}

// Every weight × every length 0..97 (all AVX2 tail shapes), at a
// misaligned offset, against a byte loop over gf256::mul.
void expect_mul_acc_matches_reference(Gf256MulAccFn kernel) {
  Rng rng(47);
  for (int w = 0; w < 256; ++w) {
    for (std::size_t len = 0; len <= 97; ++len) {
      const Bytes src = random_bytes(rng, len);
      const Bytes dst = random_bytes(rng, len);
      Bytes want = dst;
      for (std::size_t j = 0; j < len; ++j)
        want[j] ^= gf256::mul(static_cast<std::uint8_t>(w), src[j]);
      const std::size_t shift = 1 + rng.next_u64() % 31;
      const Unaligned in(src, shift);
      Unaligned out(dst, 32 - shift);
      kernel(out.storage.data() + out.off, in.view(len).data(), len,
             static_cast<std::uint8_t>(w));
      ASSERT_TRUE(std::equal(want.begin(), want.end(),
                             out.view(len).begin()))
          << "w=" << w << " len=" << len;
      // Bytes past the end are untouched.
      ASSERT_EQ(out.storage[out.off + len], 0xa5) << "w=" << w;
    }
  }
}

TEST(Gf256Kernels, ScalarMatchesLogExpProduct) {
  expect_mul_acc_matches_reference(&detail::gf256_mul_acc_scalar);
}

TEST(Gf256Kernels, Avx2MatchesLogExpProduct) {
  const Gf256MulAccFn fast = detail::gf256_mul_acc_avx2();
  if (fast == nullptr) GTEST_SKIP() << "CPU lacks AVX2";
  expect_mul_acc_matches_reference(fast);
}

TEST(Gf256Kernels, Avx2MatchesScalarOnLongRows) {
  const Gf256MulAccFn fast = detail::gf256_mul_acc_avx2();
  if (fast == nullptr) GTEST_SKIP() << "CPU lacks AVX2";
  Rng rng(53);
  for (std::size_t len : {128u, 1000u, 2048u, 4099u}) {
    const Bytes src = random_bytes(rng, len);
    Bytes a = random_bytes(rng, len);
    Bytes b = a;
    const auto w = static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
    detail::gf256_mul_acc_scalar(a.data(), src.data(), len, w);
    fast(b.data(), src.data(), len, w);
    EXPECT_EQ(a, b) << "len " << len;
  }
}

TEST(Gf256Kernels, DispatchPrefersAvx2ElseScalar) {
  const Gf256MulAccFn fast = detail::gf256_mul_acc_avx2();
  EXPECT_EQ(detail::gf256_mul_acc(),
            fast != nullptr ? fast : &detail::gf256_mul_acc_scalar);
}

}  // namespace
}  // namespace coincidence::crypto
