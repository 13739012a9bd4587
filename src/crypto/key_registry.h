// The simulated trusted PKI of §2.
//
// The paper assumes keys are generated before the protocol starts and the
// public keys of all n processes are well known. KeyRegistry models
// exactly that: a trusted, immutable-after-setup table mapping process ids
// to keypairs. The *verification* side of the cheap crypto backends
// (FastVrf, Signer) consults the registry the way real verifiers consult
// a public key plus algebra — the registry stands in for the algebra, not
// for the trust assumption, which the paper already makes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace coincidence::crypto {

using ProcessId = std::uint32_t;

class KeyRegistry {
 public:
  struct Entry {
    Bytes sk;
    Bytes pk;
  };

  /// Registers a keypair for `id`; throws if `id` already registered.
  void register_keypair(ProcessId id, Bytes sk, Bytes pk);

  std::size_t size() const { return size_; }
  bool has(ProcessId id) const { return entry(id) != nullptr; }

  const Bytes& sk_of(ProcessId id) const;
  const Bytes& pk_of(ProcessId id) const;

  /// Reverse lookup: secret key for a public key (what FastVrf::verify
  /// uses to recompute the MAC), or nullptr for an unknown key. Copies
  /// nothing; the pointer lives as long as the registry.
  const Bytes* sk_for_pk(BytesView pk) const;

  /// Convenience: derives n deterministic keypairs (sk = DRBG(seed, i),
  /// pk = SHA-256(sk)) — the standard setup for simulation processes.
  static std::shared_ptr<KeyRegistry> create_for(std::size_t n,
                                                 std::uint64_t seed);

 private:
  /// Byte-string order that compares a Bytes key with a BytesView probe.
  struct BytesLess {
    using is_transparent = void;
    bool operator()(BytesView a, BytesView b) const;
  };

  /// The keypair of `id`, or nullptr.
  const Entry* entry(ProcessId id) const {
    return id < by_id_.size() && by_id_[id] ? &*by_id_[id] : nullptr;
  }

  std::vector<std::optional<Entry>> by_id_;  // indexed by id: ids are dense
  std::size_t size_ = 0;
  std::map<Bytes, ProcessId, BytesLess> by_pk_;
};

}  // namespace coincidence::crypto
