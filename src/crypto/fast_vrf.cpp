#include "crypto/fast_vrf.h"

#include "common/errors.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace coincidence::crypto {

namespace {
Bytes tagged_mac(BytesView sk, std::uint8_t tag, BytesView input) {
  Bytes msg;
  msg.push_back(tag);
  append(msg, input);
  return hmac_sha256_bytes(sk, msg);
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
  return {tagged_mac(sk, 0x01, input), tagged_mac(sk, 0x02, input)};
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
