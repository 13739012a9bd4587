// Simulation-speed VRF: y = HMAC(sk, 0x01 || x), π = HMAC(sk, 0x02 || x).
//
// Verification recomputes both MACs using the secret key looked up in the
// trusted KeyRegistry (the simulated PKI — see key_registry.h for why this
// preserves the paper's trust model). Properties within that model:
//   pseudorandomness — HMAC output is unpredictable without sk;
//   verifiability    — honest (y, π) always verifies;
//   uniqueness       — y is a deterministic function of (sk, x); any forged
//                      (y', π') with y' != y fails the recomputation check.
// O(1) per call, which is what lets the protocol benches sweep n into the
// hundreds on a single core. The DESIGN.md substitution table and the
// micro_crypto bench quantify the cost difference vs DdhVrf.
#pragma once

#include <memory>

#include "crypto/key_registry.h"
#include "crypto/vrf.h"

namespace coincidence::crypto {

class FastVrf final : public Vrf {
 public:
  explicit FastVrf(std::shared_ptr<const KeyRegistry> registry);

  VrfKeyPair keygen(Rng& rng) const override;
  VrfOutput eval(BytesView sk, BytesView input) const override;
  void eval_into(BytesView sk, BytesView input,
                 VrfOutput& out) const override;
  bool verify(BytesView pk, BytesView input,
              const VrfOutput& out) const override;
  bool verify(BytesView pk, BytesView input, BytesView value,
              BytesView proof) const override;
  std::size_t value_size() const override { return 32; }
  const char* name() const override { return "fast-vrf"; }

 private:
  std::shared_ptr<const KeyRegistry> registry_;
};

}  // namespace coincidence::crypto
