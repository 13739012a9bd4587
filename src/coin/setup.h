// The §3 setup every committee-based protocol runs on: the PKI (key
// registry), the VRF, the committee sampler, the signature scheme and
// the run-wide batch-verification service. "Setup has to occur once and
// may be used for any number of BA instances", so it is one struct:
// core::Env builds it, and each protocol config (WhpCoin, Approver,
// BaWhp, MultiValuedBa, session::LogConfig) inherits it, so every layer
// hands it down with one copy.
#pragma once

#include <cstddef>
#include <memory>

#include "coin/verify_queue.h"
#include "committee/params.h"
#include "committee/sampler.h"
#include "crypto/key_registry.h"
#include "crypto/signer.h"
#include "crypto/vrf.h"

namespace coincidence::coin {

struct Setup {
  committee::Params params;
  std::shared_ptr<const crypto::Vrf> vrf;
  std::shared_ptr<const crypto::KeyRegistry> registry;
  std::shared_ptr<const committee::Sampler> sampler;
  std::shared_ptr<const crypto::Signer> signer;
  /// Shared batch-verification service (verify_queue.h). When set, the
  /// coins queue share and election proofs for folded batch checks, the
  /// approver defers its <ok> W-signature sweeps, and the erasure-coded
  /// broadcasts memoize branch and re-encode verdicts; when null every
  /// check runs inline per message. Sends, decisions and words are
  /// bit-identical either way; only the verify counters differ. It and
  /// the sampler's caches are shared by every process of one Simulation
  /// on both engines (sharded handlers only read them; their writes wait
  /// for the superstep barrier, common/write_sink.h). Never share them
  /// across concurrently running Simulations.
  std::shared_ptr<BatchVerifier> batcher;

  std::size_t n() const { return params.n; }
  std::size_t f() const { return params.f; }
};

}  // namespace coincidence::coin
