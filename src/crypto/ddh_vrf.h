// DDH-based VRF with a Chaum–Pedersen DLEQ proof (the classic
// construction behind ECVRF, instantiated over a safe-prime QR group):
//
//   keygen:  sk ∈ [1, q),  pk = g^sk
//   eval(x): h = H1(x), Γ = h^sk, y = H2(Γ)
//            proof: deterministic nonce k (RFC 6979 style),
//                   a = g^k, b = h^k, c = H3(g,h,pk,Γ,a,b), s = k − c·sk
//   verify:  c = H3(g,h,pk,Γ,a,b),
//            accept iff pk,Γ,a,b ∈ G, a = g^s·pk^c, b = h^s·Γ^c, y = H2(Γ)
//
// The proof transmits the commitments (Γ, a, b, s) rather than the
// compressed (Γ, c, s) form: recomputing c from the transmitted a, b and
// checking the two group equations is what makes k proofs foldable into
// ONE random linear combination (batch_verify below) — the hash-compare
// form needs a'/b' individually and cannot be batched. The challenge is
// truncated to 128 bits (ECVRF-style): soundness 2⁻¹²⁸ per proof, and the
// per-entry batch exponents stay 128/256 bits wide, which is where the
// near-k-fold amortization comes from.
//
// Uniqueness holds because Γ = h^sk is a function of (pk, x) and H2 is
// deterministic; the subgroup checks (Jacobi) on pk, Γ, a, b close the
// order-2 escape hatch in the safe-prime setting — for the batch path
// they are load-bearing, since a random combination would catch a Z₂
// component only with probability 1/2.
//
// Per-input and per-key state. Committee sampling has every process
// evaluate the same input, and every committee member's proofs are checked
// by every receiver, so both h = H1(x) and each public key repeat. The
// instance keeps:
//   per input: h, its encoding and an 8-tooth comb table for h;
//   per public key: the parsed value, its membership verdict (negative
//     verdicts too), its encoding and, built at its first pk^c (in verify
//     or a batch singleton), a 128-bit comb table for pk^c;
//   per secret key, keyed by the key's SHA-256: the encoding of
//     pk = g^sk, so eval does not redo it.
// Every full-width power of h and g runs on a comb table, eval's h^sk and
// h^k in one pass; pk^c runs on the key's table and only Γ^c on a ladder.
// The Jacobi checks on Γ, a and b run for every proof, and pk's once per
// key. The caches only change how a value is computed, never the value,
// so outputs and verdicts are the untabled formulas' bit for bit.
//
// Bounds. Each cache is a FIFO charged in bytes: kInputCacheBytes for the
// inputs, kKeyCacheBytes for the public keys (a member key is charged for
// its table up front) and kSecretKeyCacheBytes for the secret keys. A
// 256-entry table of the group's limb width takes 8 KiB at 256 bits and
// 48 KiB at 1536 bits, so 4 MiB holds about 500 inputs and 500 keys at
// 256 bits, or 85 of each at 1536 bits. A secret-key entry is charged its
// digest, pk's encoding and 64 bytes, so 64 KiB holds about 500 of them at
// 256 bits and 220 at 1536 bits, more than the processes of a run.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "crypto/prime_group.h"
#include "crypto/sha256.h"
#include "crypto/vrf.h"

namespace coincidence::crypto {

class DdhVrf final : public Vrf {
 public:
  explicit DdhVrf(PrimeGroup group);

  VrfKeyPair keygen(Rng& rng) const override;
  VrfOutput eval(BytesView sk, BytesView input) const override;
  bool verify(BytesView pk, BytesView input,
              const VrfOutput& out) const override;
  bool verify(BytesView pk, BytesView input, BytesView value,
              BytesView proof) const override;

  /// Bellare–Garay–Rabin small-exponent batch verification: all k DLEQ
  /// proofs fold under independent 128-bit DRBG scalars zᵢ, wᵢ into
  ///
  ///   Π aᵢ^zᵢ · bᵢ^wᵢ  ==  Π pkᵢ^(zᵢcᵢ) · Γᵢ^(wᵢcᵢ)
  ///                        · g^(Σzᵢsᵢ) · Π_x H1(x)^(Σ_{inputᵢ=x} wᵢsᵢ)
  ///
  /// — two Pippenger multi-exps over short exponents plus one comb
  /// exponentiation on g and one on each distinct input's h, instead of
  /// 2k exact checks. On failure, binary-split attribution isolates the bad
  /// entries in O(bad·log k) subset multi-exps; singletons are checked
  /// with the exact per-proof equations, so the accept/reject sets are
  /// bit-identical to verify() (up to the 2⁻¹²⁸ combination soundness
  /// error on multi-entry subsets). The combiner scalars are derived
  /// deterministically from (batch_seed, entry bytes), so replays — at
  /// any thread count — see identical scalars.
  void batch_verify(std::span<const VrfBatchEntry> entries,
                    std::vector<char>& out) const override;

  /// Folds a session seed into the combiner DRBG so distinct runs draw
  /// distinct scalars while replays of one run stay deterministic. Call
  /// before sharing the instance across threads; defaults to 0.
  void set_batch_seed(std::uint64_t seed) { batch_seed_ = seed; }

  std::size_t value_size() const override { return 32; }
  const char* name() const override { return "ddh-vrf"; }

  const PrimeGroup& group() const { return group_; }

  /// Byte budgets of the per-input and per-key caches (see above).
  static constexpr std::size_t kInputCacheBytes = std::size_t{4} << 20;
  static constexpr std::size_t kKeyCacheBytes = std::size_t{4} << 20;
  static constexpr std::size_t kSecretKeyCacheBytes = std::size_t{64} << 10;

 private:
  struct ParsedEntry;
  struct InputState;
  struct KeyState;

  /// A FIFO map from byte strings to shared immutable values, bounded by
  /// the bytes charged for its values. Safe to call from many threads; a
  /// value stays valid while its holder keeps it, even once dropped.
  template <class V>
  class Cache {
   public:
    explicit Cache(std::size_t budget) : budget_(budget) {}
    std::shared_ptr<const V> find(BytesView key) const;
    /// Inserts unless present and returns the resident value.
    std::shared_ptr<const V> insert(BytesView key,
                                    std::shared_ptr<const V> value,
                                    std::size_t bytes) const;

   private:
    struct Charge {
      std::string key;
      std::size_t bytes;
    };
    const std::size_t budget_;
    mutable std::mutex mu_;
    mutable std::map<std::string, std::shared_ptr<const V>, std::less<>> map_;
    mutable std::deque<Charge> order_;  // insertion order
    mutable std::size_t bytes_ = 0;
  };

  /// The state of h = H1(input), built on a miss.
  std::shared_ptr<const InputState> input_state(BytesView input) const;
  /// The state of a public key, built on a miss.
  std::shared_ptr<const KeyState> key_state(BytesView pk) const;
  /// The encoding of g^sk for a secret key, computed on a miss.
  std::shared_ptr<const Bytes> public_key_of(BytesView sk_bytes,
                                             const Bignum& sk) const;

  /// H3(g, h, pk, Γ, a, b) from the elements' encodings.
  Bignum challenge(BytesView h, BytesView pk, BytesView gamma, BytesView a,
                   BytesView b) const;
  /// Everything verify() checks but the two group equations: the proof's
  /// encoding, s < q, the four memberships and y = H2(Γ). On success `p`
  /// holds the parsed proof and its challenge.
  bool parse(BytesView pk, BytesView input, BytesView value, BytesView proof,
             ParsedEntry& p) const;
  /// The two DLEQ group equations a = g^s·pk^c and b = h^s·Γ^c.
  bool dleq_holds(const ParsedEntry& p) const;
  /// Randomized subset check over already-parsed entries (indices into
  /// `parsed`); true iff the folded equation holds.
  bool check_subset(const std::vector<ParsedEntry>& parsed,
                    const std::vector<std::size_t>& subset) const;

  PrimeGroup group_;
  Bignum q_minus_1_;
  Sha256 challenge_prefix_;  // "h3" and g's blob, hashed once
  std::size_t key_table_bytes_ = 0;  // one pk^c comb table
  std::uint64_t batch_seed_ = 0;

  Cache<InputState> inputs_{kInputCacheBytes};
  Cache<KeyState> keys_{kKeyCacheBytes};
  Cache<Bytes> pks_of_sk_{kSecretKeyCacheBytes};
};

}  // namespace coincidence::crypto
