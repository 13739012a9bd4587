#include "crypto/hmac.h"

#include <array>

namespace coincidence::crypto {

Digest hmac_sha256(BytesView key, BytesView message) {
  return hmac_sha256(key, {}, message);
}

Digest hmac_sha256(BytesView key, BytesView prefix, BytesView message) {
  // Stack pads: every Signer check and VRF eval lands here, so the
  // padded key costs no allocation.
  Digest kd;
  if (key.size() > kSha256BlockSize) {
    kd = sha256(key);
    key = kd;
  }
  std::array<std::uint8_t, kSha256BlockSize> ipad, opad;
  ipad.fill(0x36);
  opad.fill(0x5c);
  for (std::size_t i = 0; i < key.size(); ++i) {
    ipad[i] ^= key[i];
    opad[i] ^= key[i];
  }

  Sha256 inner;
  inner.update(ipad);
  inner.update(prefix);
  inner.update(message);
  Digest inner_digest = inner.finish();

  Sha256 outer;
  outer.update(opad);
  outer.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

Bytes hmac_sha256_bytes(BytesView key, BytesView message) {
  Digest d = hmac_sha256(key, message);
  return Bytes(d.begin(), d.end());
}

HmacDrbg::HmacDrbg(BytesView seed)
    : key_(kSha256DigestSize, 0x00), value_(kSha256DigestSize, 0x01) {
  update(seed);
}

void HmacDrbg::update(BytesView provided) {
  Bytes msg = value_;
  msg.push_back(0x00);
  append(msg, provided);
  Digest k = hmac_sha256(key_, msg);
  key_.assign(k.begin(), k.end());
  Digest v = hmac_sha256(key_, value_);
  value_.assign(v.begin(), v.end());
  if (!provided.empty()) {
    msg = value_;
    msg.push_back(0x01);
    append(msg, provided);
    k = hmac_sha256(key_, msg);
    key_.assign(k.begin(), k.end());
    v = hmac_sha256(key_, value_);
    value_.assign(v.begin(), v.end());
  }
}

Bytes HmacDrbg::generate(std::size_t n) {
  Bytes out;
  generate_into(n, out);
  return out;
}

void HmacDrbg::generate_into(std::size_t n, Bytes& out) {
  out.clear();
  out.reserve(n);
  while (out.size() < n) {
    Digest v = hmac_sha256(key_, value_);
    value_.assign(v.begin(), v.end());
    std::size_t take = std::min(value_.size(), n - out.size());
    out.insert(out.end(), value_.begin(), value_.begin() + take);
  }
  update({});
}

std::uint64_t HmacDrbg::next_u64() {
  Bytes b = generate(8);
  return u64_of_bytes(b);
}

}  // namespace coincidence::crypto
