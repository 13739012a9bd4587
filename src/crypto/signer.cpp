#include "crypto/signer.h"

#include "common/errors.h"
#include "crypto/hmac.h"

namespace coincidence::crypto {

namespace {
// Domain separation: a signature is the HMAC of "sig" || message.
constexpr std::uint8_t kSigTag[] = {'s', 'i', 'g'};

Digest sig_mac(BytesView sk, BytesView message) {
  return hmac_sha256(sk, kSigTag, message);
}
}  // namespace

Signer::Signer(std::shared_ptr<const KeyRegistry> registry)
    : registry_(std::move(registry)) {
  COIN_REQUIRE(registry_ != nullptr, "Signer needs a key registry");
}

Bytes Signer::sign(ProcessId id, BytesView message) const {
  const Digest sig = sign_digest(id, message);
  return Bytes(sig.begin(), sig.end());
}

Digest Signer::sign_digest(ProcessId id, BytesView message) const {
  return sig_mac(registry_->sk_of(id), message);
}

bool Signer::verify(ProcessId id, BytesView message, BytesView sig) const {
  if (!registry_->has(id)) return false;
  return ct_equal(sig_mac(registry_->sk_of(id), message), sig);
}

void Signer::batch_verify(std::span<const SigBatchEntry> entries,
                          std::vector<char>& out) const {
  out.assign(entries.size(), 0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SigBatchEntry& e = entries[i];
    if (!registry_->has(e.signer)) continue;
    out[i] = ct_equal(sig_mac(registry_->sk_of(e.signer), e.message), e.sig)
                 ? 1
                 : 0;
  }
}

}  // namespace coincidence::crypto
