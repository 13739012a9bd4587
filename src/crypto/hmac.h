// HMAC-SHA-256 (RFC 2104 / FIPS 198-1) and HMAC-DRBG (SP 800-90A).
//
// HMAC authenticates simulated-PKI messages (see Signer) and keys the
// FastVrf; the DRBG turns VRF outputs into arbitrary-length pseudorandom
// streams (e.g. committee-sampling thresholds).
#pragma once

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace coincidence::crypto {

/// One-shot HMAC-SHA-256.
Digest hmac_sha256(BytesView key, BytesView message);

/// HMAC-SHA-256 of `prefix || message`, hashed in place: the domain-
/// separated MACs of Signer and FastVrf build no concatenation.
Digest hmac_sha256(BytesView key, BytesView prefix, BytesView message);

/// One-shot HMAC-SHA-256 returning Bytes.
Bytes hmac_sha256_bytes(BytesView key, BytesView message);

/// Deterministic random bit generator per SP 800-90A HMAC_DRBG
/// (no reseeding; the simulator never generates more than 2^19 bits
/// per instantiation).
class HmacDrbg {
 public:
  explicit HmacDrbg(BytesView seed);

  /// Next `n` pseudorandom bytes.
  Bytes generate(std::size_t n);

  /// Same stream as generate(), but fills `out` in place (resized to `n`)
  /// so a caller looping draws — hash_to_group's retry loop, committee
  /// threshold expansion — reuses one allocation instead of minting a
  /// fresh Bytes per call.
  void generate_into(std::size_t n, Bytes& out);

  /// Next uniform u64 (first 8 bytes of a generate(8) call).
  std::uint64_t next_u64();

 private:
  void update(BytesView provided);

  Bytes key_;
  Bytes value_;
};

}  // namespace coincidence::crypto
