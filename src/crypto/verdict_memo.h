// Exact-bytes verdict memo: the one result cache behind every pure check
// whose inputs repeat verbatim across receivers.
//
// A broadcast reaches n processes with identical bytes, and each of them
// runs the same pure check on it: a coin share's VRF proof
// (VerifyMemo), an ⟨echo⟩ signature (SigMemo), an erasure-coded echo's
// Merkle branch or a decoded dispersal's re-encode (ba/rbc_ec.h). With
// one memo shared by every receiver of a run the check runs once per
// distinct input instead of once per receiver.
//
// A key is a short list of byte fields plus a caller-chosen 64-bit
// fingerprint. The table is open-addressed over the fingerprints; each
// slot points at an entry that owns a copy of its key bytes. A lookup
// takes views and allocates nothing. Only an exact compare of every
// field produces a hit: a fingerprint collision, or a Byzantine variant
// one byte away from an honest key, is a miss and is computed in full.
// Negative verdicts are cached like positive ones, so a forged input
// replayed n times is checked once and never poisons the honest key.
// The users: the sampler's committee-val checks, the VRF-share memo
// (verify_memo.h), the signature memo (sig_memo.h), and the two memos on
// coin::BatchVerifier: rbc_memo() for erasure-coded echoes and
// ok_memo() for whole approver <ok> certificates (ba/approver.h).
//
// Fields are length-framed in the stored copy, so ("ab", "c") and
// ("a", "bc") are different keys, and keys with different field counts
// never match. One memo serves every process of a run on both
// simulator engines: lookups only read the table and bump atomic
// counters, and store() goes through defer_write (common/write_sink.h),
// so on the sharded engine a store waits for the superstep barrier.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/shared_bytes.h"
#include "common/write_sink.h"

namespace coincidence::crypto {

class VerdictMemo {
 public:
  using Fields = std::initializer_list<BytesView>;

  /// A fixed-width integer as a key field. Views of a temporary IntField
  /// stay valid until the end of the full expression, which covers a
  /// lookup or store call that takes them.
  class IntField {
   public:
    explicit IntField(std::uint64_t v);
    operator BytesView() const { return BytesView(bytes_); }

   private:
    std::array<std::uint8_t, 8> bytes_{};
  };

  /// A multiply-xorshift hash over the fields, eight bytes at a time,
  /// with a length marker before each field, for keys without a cheaper
  /// well-spread fingerprint.
  static std::uint64_t fingerprint(Fields key);

  /// The cached verdict for `key`, if any. Counts a hit or a miss.
  std::optional<bool> lookup(std::uint64_t fp, Fields key) const;

  /// Records the verdict for `key`, overwriting an earlier one.
  void store(std::uint64_t fp, Fields key, bool ok);

  /// store() for the two-field key (`head`, `tail`), where `tail` points
  /// into `owner`. A deferred write holds `owner` by refcount and copies
  /// the key only when it applies and finds the key absent, so the
  /// concurrent misses of one large key do not each queue a copy.
  void store_retained(std::uint64_t fp, Bytes head, SharedBytes owner,
                      BytesView tail, bool ok);

  /// The cached verdict for `key`, or `check()` run and recorded.
  template <typename Check>
  bool verdict(std::uint64_t fp, Fields key, Check check) {
    if (const std::optional<bool> hit = lookup(fp, key)) return *hit;
    const bool ok = check();
    store(fp, key, ok);
    return ok;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Slot {
    std::uint64_t fp = 0;
    std::size_t entry = 0;  // 1 + index into entries_; 0 = empty
  };
  struct Entry {
    Bytes key;  // each field as an 8-byte length, then its bytes
    bool ok = false;
  };

  /// The slot whose key satisfies `same`, or the empty slot ending the run.
  template <typename Same>
  std::size_t probe(std::uint64_t fp, Same same) const;
  /// Sets the verdict of the key `same` matches, or adds an entry whose
  /// key is `framed()`.
  template <typename Same, typename Framed>
  void insert(std::uint64_t fp, bool ok, Same same, Framed framed);
  void grow();

  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::vector<Entry> entries_;
  mutable std::atomic<std::uint64_t> hits_ = 0;
  mutable std::atomic<std::uint64_t> misses_ = 0;
};

}  // namespace coincidence::crypto
