// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the hash underlying every derived primitive in the library:
// HMAC, HMAC-DRBG, the hash-to-group map of the DDH VRF, the FastVrf and
// the simulated signature scheme. Tested against the FIPS/NIST vectors.
// The block compression is dispatched once per process: SHA-NI when the
// CPU has it, the portable scalar code otherwise (crypto/kernels.h).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace coincidence::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Incremental SHA-256. Usage: Sha256 h; h.update(a); h.update(b);
/// Digest d = h.finish();  finish() may be called exactly once.
class Sha256 {
 public:
  Sha256();

  void update(BytesView data);
  Digest finish();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kSha256BlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

/// One-shot convenience.
Digest sha256(BytesView data);

/// One-shot returning a Bytes (handy for serialization paths).
Bytes sha256_bytes(BytesView data);

}  // namespace coincidence::crypto
