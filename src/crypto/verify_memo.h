// Verified-share memo: crypto::VerdictMemo keyed by (pk, input, value,
// proof) tuples.
//
// Lossy links duplicate and replay coin shares verbatim (see
// sim::NetworkProfile); with deferred batch verification those copies
// would otherwise re-enter a batch and pay the multi-exp again. The memo
// makes every re-delivered tuple a dictionary hit. Negative results are
// cached too: a forged share replayed n times costs one verification.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "crypto/verdict_memo.h"
#include "crypto/vrf.h"

namespace coincidence::crypto {

class VerifyMemo {
 public:
  /// The cached verdict for `e`, if any. Counts a hit or miss.
  std::optional<bool> lookup(const VrfBatchEntry& e) const {
    const VerdictMemo::Fields key = {e.pk, e.input, e.value, e.proof};
    return memo_.lookup(VerdictMemo::fingerprint(key), key);
  }

  /// Records the verdict for `e` (overwrites on the unlikely re-store).
  void store(const VrfBatchEntry& e, bool ok) {
    const VerdictMemo::Fields key = {e.pk, e.input, e.value, e.proof};
    memo_.store(VerdictMemo::fingerprint(key), key, ok);
  }

  std::uint64_t hits() const { return memo_.hits(); }
  std::uint64_t misses() const { return memo_.misses(); }
  std::size_t size() const { return memo_.size(); }

 private:
  VerdictMemo memo_;
};

}  // namespace coincidence::crypto
