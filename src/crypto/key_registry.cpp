#include "crypto/key_registry.h"

#include <algorithm>
#include <cstring>

#include "common/errors.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace coincidence::crypto {

void KeyRegistry::register_keypair(ProcessId id, Bytes sk, Bytes pk) {
  COIN_REQUIRE(by_id_.count(id) == 0, "KeyRegistry: duplicate id");
  COIN_REQUIRE(by_pk_.count(pk) == 0, "KeyRegistry: duplicate public key");
  by_pk_[pk] = id;
  by_id_[id] = Entry{std::move(sk), std::move(pk)};
}

const Bytes& KeyRegistry::sk_of(ProcessId id) const {
  auto it = by_id_.find(id);
  COIN_REQUIRE(it != by_id_.end(), "KeyRegistry: unknown id");
  return it->second.sk;
}

const Bytes& KeyRegistry::pk_of(ProcessId id) const {
  auto it = by_id_.find(id);
  COIN_REQUIRE(it != by_id_.end(), "KeyRegistry: unknown id");
  return it->second.pk;
}

bool KeyRegistry::BytesLess::operator()(BytesView a, BytesView b) const {
  const std::size_t n = std::min(a.size(), b.size());
  const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  return c != 0 ? c < 0 : a.size() < b.size();
}

const Bytes* KeyRegistry::sk_for_pk(BytesView pk) const {
  auto it = by_pk_.find(pk);
  if (it == by_pk_.end()) return nullptr;
  return &by_id_.at(it->second).sk;
}

std::shared_ptr<KeyRegistry> KeyRegistry::create_for(std::size_t n,
                                                     std::uint64_t seed) {
  auto reg = std::make_shared<KeyRegistry>();
  HmacDrbg drbg(concat({bytes_of("pki"), bytes_of_u64(seed)}));
  for (std::size_t i = 0; i < n; ++i) {
    Bytes sk = drbg.generate(32);
    Bytes pk = sha256_bytes(concat({bytes_of("pk"), BytesView(sk)}));
    reg->register_keypair(static_cast<ProcessId>(i), std::move(sk),
                          std::move(pk));
  }
  return reg;
}

}  // namespace coincidence::crypto
