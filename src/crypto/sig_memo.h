// Verified-signature memo: crypto::VerdictMemo keyed by (signer,
// message, sig) triples.
//
// The approver's ok-path is where this pays: every ⟨ok,v⟩ message embeds
// the SAME W signed ⟨echo,v⟩ entries (§6.1), so the ~λ ok messages a
// process receives would re-verify n·W HMACs that collapse to ~W memo
// misses. Because the key includes the signature bytes, a forged
// signature caches its own (negative) verdict without poisoning the
// honest (signer, message) pair — the honest entry is a different key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "crypto/signer.h"
#include "crypto/verdict_memo.h"

namespace coincidence::crypto {

class SigMemo {
 public:
  /// The cached verdict for `e`, if any. Counts a hit or miss.
  std::optional<bool> lookup(const SigBatchEntry& e) const {
    return memo_.lookup(fingerprint(e),
                        {VerdictMemo::IntField(e.signer), e.message, e.sig});
  }

  /// Records the verdict for `e` (overwrites on the unlikely re-store).
  void store(const SigBatchEntry& e, bool ok) {
    memo_.store(fingerprint(e),
                {VerdictMemo::IntField(e.signer), e.message, e.sig}, ok);
  }

  /// The table fingerprint of `e` — exposed so batch callers can dedup
  /// identical triples WITHIN one flush before they reach the signer
  /// (the memo itself only collapses repeats across flushes: lookups all
  /// happen before any store).
  static std::uint64_t fingerprint(const SigBatchEntry& e) {
    return VerdictMemo::fingerprint(
        {VerdictMemo::IntField(e.signer), e.message, e.sig});
  }

  std::uint64_t hits() const { return memo_.hits(); }
  std::uint64_t misses() const { return memo_.misses(); }
  std::size_t size() const { return memo_.size(); }

 private:
  VerdictMemo memo_;
};

}  // namespace coincidence::crypto
