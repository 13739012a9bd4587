// Message signatures for the approver's ok-message proofs (§6.1: an
// ⟨ok,v⟩ message carries W signed ⟨echo,v⟩ messages as validity proof).
//
// Simulated-PKI instantiation: sig = HMAC(sk, msg), verified by
// recomputation through the KeyRegistry. Unforgeable within the
// simulation (the adversary never sees a correct process's sk) and
// costs one word on the wire — exactly how the paper accounts it.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "crypto/key_registry.h"
#include "crypto/sha256.h"

namespace coincidence::crypto {

/// One (signer, message, sig) triple of a batch verification. Views must
/// outlive the batch_verify call; they typically point into retained
/// wire buffers (the approver's ok-proof entries) or hoisted members.
struct SigBatchEntry {
  ProcessId signer = 0;
  BytesView message;
  BytesView sig;
};

class Signer {
 public:
  explicit Signer(std::shared_ptr<const KeyRegistry> registry);

  /// Signature by process `id` over `message`.
  Bytes sign(ProcessId id, BytesView message) const;
  /// sign() as a stack digest, for a caller that writes it straight
  /// into a message.
  Digest sign_digest(ProcessId id, BytesView message) const;

  /// True iff `sig` is `id`'s signature over `message`.
  bool verify(ProcessId id, BytesView message, BytesView sig) const;

  /// Verifies a whole batch: on return out[i] == verify(entries[i]...)
  /// for every i, and out.size() == entries.size(). HMAC recomputation
  /// does not fold the way a multi-exp does; each entry hashes the
  /// domain-separation prefix and its message in place into a stack
  /// digest, with no per-entry heap traffic. Callers wanting cross-batch
  /// dedup wrap this with a SigMemo (see coin::BatchVerifier).
  void batch_verify(std::span<const SigBatchEntry> entries,
                    std::vector<char>& out) const;

  /// Wire size of one signature (one "word" in the paper's accounting).
  static constexpr std::size_t kSignatureSize = 32;

 private:
  std::shared_ptr<const KeyRegistry> registry_;
};

}  // namespace coincidence::crypto
