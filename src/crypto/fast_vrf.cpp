#include "crypto/fast_vrf.h"

#include "common/errors.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace coincidence::crypto {

namespace {
Digest tagged_mac(BytesView sk, std::uint8_t tag, BytesView input) {
  return hmac_sha256(sk, BytesView(&tag, 1), input);
}
}  // namespace

FastVrf::FastVrf(std::shared_ptr<const KeyRegistry> registry)
    : registry_(std::move(registry)) {
  COIN_REQUIRE(registry_ != nullptr, "FastVrf needs a key registry");
}

VrfKeyPair FastVrf::keygen(Rng& rng) const {
  Bytes sk = rng.next_bytes(32);
  Bytes pk = sha256_bytes(concat({bytes_of("pk"), BytesView(sk)}));
  return {std::move(sk), std::move(pk)};
}

VrfOutput FastVrf::eval(BytesView sk, BytesView input) const {
  VrfOutput out;
  eval_into(sk, input, out);
  return out;
}

void FastVrf::eval_into(BytesView sk, BytesView input, VrfOutput& out) const {
  const Digest value = tagged_mac(sk, 0x01, input);
  const Digest proof = tagged_mac(sk, 0x02, input);
  out.value.assign(value.begin(), value.end());
  out.proof.assign(proof.begin(), proof.end());
}

bool FastVrf::verify(BytesView pk, BytesView input,
                     const VrfOutput& out) const {
  return verify(pk, input, out.value, out.proof);
}

bool FastVrf::verify(BytesView pk, BytesView input, BytesView value,
                     BytesView proof) const {
  const Bytes* sk = registry_->sk_for_pk(pk);
  if (sk == nullptr) return false;  // not a registered participant
  return ct_equal(value, tagged_mac(*sk, 0x01, input)) &&
         ct_equal(proof, tagged_mac(*sk, 0x02, input));
}

}  // namespace coincidence::crypto
