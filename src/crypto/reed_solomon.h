// Systematic Reed–Solomon erasure code over GF(2^8) (ISSUE 10 tentpole).
//
// The erasure-coded broadcast (ba/rbc_ec.h) splits a value into k = f+1
// data fragments and n−k parity fragments so that *any* k of the n
// fragments reconstruct the value — the MDS property that lets a source
// disseminate O(|v|/k) bytes per process instead of re-shipping the whole
// value n times.
//
// Construction: the value is striped into k data fragments of
// L = ⌈|v|/k⌉ bytes (zero-padded). For byte position j, the k data bytes
// define the unique polynomial p_j of degree < k with p_j(x_i) = data
// byte i at evaluation points x_i = i; parity fragment i ∈ [k, n) holds
// p_j(x_i) at every position j. Decoding Lagrange-interpolates each
// position from any k distinct fragments. All arithmetic is in GF(2^8)
// with the AES-adjacent primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d):
// single products via log/exp tables, the bulk row × fragment work via a
// split-nibble multiply-accumulate (AVX2 when present, crypto/kernels.h).
// Field size caps n at 255 fragments —
// plenty for the session-layer configurations; callers must gate larger
// cohorts onto the Bracha backend.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace coincidence::crypto {

/// GF(2^8) helpers, exposed for tests and micro-benches.
namespace gf256 {
std::uint8_t mul(std::uint8_t a, std::uint8_t b);
std::uint8_t inv(std::uint8_t a);  // COIN_REQUIRE(a != 0)
}  // namespace gf256

class ReedSolomon {
 public:
  /// `n` total fragments, `k` data fragments; 1 <= k <= n <= 255.
  ReedSolomon(std::size_t n, std::size_t k);

  std::size_t n() const { return n_; }
  std::size_t k() const { return k_; }

  /// Per-fragment byte length for a `value_size`-byte value: ⌈size/k⌉,
  /// computed without the wrap (size + k − 1) would hit for sizes a
  /// Byzantine sender may claim near 2^64.
  std::size_t fragment_size(std::size_t value_size) const {
    return value_size / k_ + (value_size % k_ != 0 ? 1 : 0);
  }

  /// Encodes `value` into n fragments of fragment_size(value.size())
  /// bytes each; fragments [0, k) concatenate to the zero-padded value
  /// (systematic part), [k, n) are parity.
  std::vector<Bytes> encode(BytesView value) const;

  /// Reconstructs the original value from any k distinct (index,
  /// fragment) pairs. Throws CodecError on duplicate/out-of-range
  /// indices or a fragment-count or fragment-length mismatch. Fragments
  /// must be fragment_size(value_size) long, so a value_size above
  /// k * fragment length throws before anything is sized from it.
  Bytes decode(std::span<const std::pair<std::size_t, BytesView>> fragments,
               std::size_t value_size) const;

  /// The same over owned fragments.
  Bytes decode(const std::vector<std::pair<std::size_t, Bytes>>& fragments,
               std::size_t value_size) const;

 private:
  /// Lagrange coefficients c_s such that p(target) = Σ c_s · y_s for the
  /// unique degree-<k polynomial through (xs[s], y_s).
  std::vector<std::uint8_t> lagrange_row(const std::vector<std::uint8_t>& xs,
                                         std::uint8_t target) const;

  std::size_t n_;
  std::size_t k_;
  // Precomputed encode matrix: parity_rows_[i - k][m] is the weight of
  // data fragment m in parity fragment i.
  std::vector<std::vector<std::uint8_t>> parity_rows_;
};

}  // namespace coincidence::crypto
