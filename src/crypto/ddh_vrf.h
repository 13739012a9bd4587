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
// Per-input bases. Committee sampling has every process evaluate the
// same input, so h = H1(x) repeats across keys: the instance keeps, per
// recent input, h and a fixed-base comb table for it. Every full-width
// exponent of h — eval's h^sk and h^k, verify's h^s, batch_verify's
// h^(Σwᵢsᵢ) — runs on that table, the 128-bit challenge exponents on a
// short ladder, and g^s on the group's g table. The table only changes
// how a power is computed, never its value, so outputs and verdicts are
// the untabled formulas' bit for bit.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "crypto/prime_group.h"
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

 private:
  struct ParsedEntry;

  /// Inputs whose tables stay cached; the oldest is dropped past this.
  static constexpr std::size_t kCachedInputs = 256;

  /// The comb table of h = H1(input) (its base() is h), built on a
  /// miss. Safe to call from many threads; a table stays valid while its
  /// holder keeps it, even after the cache drops it.
  std::shared_ptr<const CombTable> input_table(BytesView input) const;

  Bignum challenge(const Bignum& h, const Bignum& pk, const Bignum& gamma,
                   const Bignum& a, const Bignum& b) const;
  /// The two DLEQ group equations a = g^s·pk^c and b = h^s·Γ^c, h being
  /// `h_comb`'s base.
  bool dleq_holds(const CombTable& h_comb, const Bignum& pk,
                  const Bignum& gamma, const Bignum& a, const Bignum& b,
                  const Bignum& s, const Bignum& c) const;
  /// Randomized subset check over already-parsed entries (indices into
  /// `parsed`); true iff the folded equation holds.
  bool check_subset(const std::vector<ParsedEntry>& parsed,
                    const std::vector<std::size_t>& subset) const;

  PrimeGroup group_;
  std::uint64_t batch_seed_ = 0;

  mutable std::mutex bases_mu_;
  mutable std::map<std::string, std::shared_ptr<const CombTable>, std::less<>>
      bases_;
  mutable std::deque<std::string> bases_order_;  // insertion order
};

}  // namespace coincidence::crypto
