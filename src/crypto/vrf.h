// The VRF abstraction of §2: y,π = VRF_sk(x) with
//   * pseudorandomness  — y is indistinguishable from random without sk,
//   * verifiability     — VRF-Ver_pk(x, (y,π)) = true for honest output,
//   * uniqueness        — no two (y1,π1) != (y2,π2) both verify for one x.
//
// Two interchangeable implementations:
//   DdhVrf  — real cryptography (Chaum–Pedersen DLEQ over a safe-prime QR
//             group); use for the crypto test-suite and micro-benches.
//   FastVrf — HMAC-SHA-256 keyed by sk, verified against the simulated
//             PKI (KeyRegistry); O(1) per call so protocol benches can
//             sweep n into the hundreds. Same three properties hold within
//             the simulation's trust model (the registry *is* the PKI).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace coincidence::crypto {

struct VrfKeyPair {
  Bytes sk;
  Bytes pk;
};

struct VrfOutput {
  Bytes value;  // the pseudorandom output y (32 bytes for both backends)
  Bytes proof;  // the correctness proof π
};

/// One (pk, input, value, proof) tuple of a batch verification. Views
/// must outlive the batch_verify call; they typically point into retained
/// wire buffers.
struct VrfBatchEntry {
  BytesView pk;
  BytesView input;
  BytesView value;
  BytesView proof;
};

class Vrf {
 public:
  virtual ~Vrf() = default;

  /// Generates a keypair from caller-supplied randomness.
  virtual VrfKeyPair keygen(Rng& rng) const = 0;

  /// Evaluates VRF_sk(x).
  virtual VrfOutput eval(BytesView sk, BytesView input) const = 0;

  /// eval() into `out`. The default assigns eval()'s result; FastVrf
  /// writes in place, so a caller that keeps one VrfOutput evaluates
  /// without allocating.
  virtual void eval_into(BytesView sk, BytesView input,
                         VrfOutput& out) const {
    out = eval(sk, input);
  }

  /// Checks VRF-Ver_pk(x, (y, π)).
  virtual bool verify(BytesView pk, BytesView input,
                      const VrfOutput& out) const = 0;

  /// View-based variant for hot paths: verifies (y, π) straight out of a
  /// decoded wire buffer without materialising a VrfOutput. The default
  /// copies into owned buffers; backends override it to skip the copies.
  virtual bool verify(BytesView pk, BytesView input, BytesView value,
                      BytesView proof) const {
    return verify(pk, input,
                  VrfOutput{Bytes(value.begin(), value.end()),
                            Bytes(proof.begin(), proof.end())});
  }

  /// Verifies a whole batch: on return out[i] == verify(entries[i]...)
  /// for every i, and out.size() == entries.size(). The default loops the
  /// view-based verify — already the right thing for cheap backends like
  /// FastVrf — while DdhVrf overrides it with random-linear-combination
  /// batching. Protocols call this regardless of backend. `out` is a
  /// vector<char> (not <bool>) so chunked parallel flushes can fill
  /// disjoint slots without data races.
  virtual void batch_verify(std::span<const VrfBatchEntry> entries,
                            std::vector<char>& out) const;

  /// Length in bytes of the output value y.
  virtual std::size_t value_size() const = 0;

  virtual const char* name() const = 0;
};

/// Interprets the first 8 bytes of a VRF value as a big-endian integer —
/// the total order the shared coin minimizes over. Collisions across 2^64
/// are negligible at simulation scale; ties are additionally broken by the
/// full value bytes then sender id in protocol code.
std::uint64_t vrf_value_as_u64(BytesView value);

/// Maps a VRF value to a uniform double in [0,1) — committee sampling uses
/// this to compare against the λ/n election threshold.
double vrf_value_as_unit_double(BytesView value);

}  // namespace coincidence::crypto
