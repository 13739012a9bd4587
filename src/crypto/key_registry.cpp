#include "crypto/key_registry.h"

#include <algorithm>
#include <cstring>

#include "common/errors.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace coincidence::crypto {

void KeyRegistry::register_keypair(ProcessId id, Bytes sk, Bytes pk) {
  COIN_REQUIRE(!has(id), "KeyRegistry: duplicate id");
  COIN_REQUIRE(by_pk_.count(pk) == 0, "KeyRegistry: duplicate public key");
  by_pk_[pk] = id;
  if (id >= by_id_.size()) by_id_.resize(std::size_t{id} + 1);
  by_id_[id] = Entry{std::move(sk), std::move(pk)};
  ++size_;
}

const Bytes& KeyRegistry::sk_of(ProcessId id) const {
  const Entry* e = entry(id);
  COIN_REQUIRE(e != nullptr, "KeyRegistry: unknown id");
  return e->sk;
}

const Bytes& KeyRegistry::pk_of(ProcessId id) const {
  const Entry* e = entry(id);
  COIN_REQUIRE(e != nullptr, "KeyRegistry: unknown id");
  return e->pk;
}

bool KeyRegistry::BytesLess::operator()(BytesView a, BytesView b) const {
  const std::size_t n = std::min(a.size(), b.size());
  const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  return c != 0 ? c < 0 : a.size() < b.size();
}

const Bytes* KeyRegistry::sk_for_pk(BytesView pk) const {
  auto it = by_pk_.find(pk);
  if (it == by_pk_.end()) return nullptr;
  return &entry(it->second)->sk;
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
