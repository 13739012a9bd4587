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
    return memo_.lookup(fingerprint(e), {e.pk, e.input, e.value, e.proof});
  }

  /// Records the verdict for `e` (overwrites on the unlikely re-store).
  void store(const VrfBatchEntry& e, bool ok) {
    memo_.store(fingerprint(e), {e.pk, e.input, e.value, e.proof}, ok);
  }

  std::uint64_t hits() const { return memo_.hits(); }
  std::uint64_t misses() const { return memo_.misses(); }
  std::size_t size() const { return memo_.size(); }

 private:
  /// The value alone: an honest VRF output is pseudorandom and unique to
  /// its (pk, input), so it spreads the table without hashing the proof;
  /// forged variants of one value only share a probe run, and the exact
  /// compare of all four fields still decides a hit.
  static std::uint64_t fingerprint(const VrfBatchEntry& e) {
    return VerdictMemo::fingerprint({e.value});
  }

  VerdictMemo memo_;
};

}  // namespace coincidence::crypto
