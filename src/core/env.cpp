#include "core/env.h"

#include "crypto/ddh_vrf.h"
#include "crypto/fast_vrf.h"

namespace coincidence::core {

namespace {
// Wires the signer and the run-wide caches every process shares (the
// sampler's and the BatchVerifier's memos) over `registry` and `vrf`.
Env build(committee::Params params,
          std::shared_ptr<crypto::KeyRegistry> registry,
          std::shared_ptr<crypto::Vrf> vrf) {
  Env env;
  env.params = params;
  env.registry = std::move(registry);
  env.vrf = std::move(vrf);
  env.signer = std::make_shared<crypto::Signer>(env.registry);
  env.sampler = std::make_shared<committee::CachingSampler>(
      env.vrf, env.registry, env.params.sample_prob());
  env.batcher = std::make_shared<coin::BatchVerifier>(
      coin::BatchVerifier::Config{env.vrf, env.sampler, env.signer});
  return env;
}

Env build_fast(committee::Params params, std::size_t n, std::uint64_t seed) {
  auto registry = crypto::KeyRegistry::create_for(n, seed);
  auto vrf = std::make_shared<crypto::FastVrf>(registry);
  return build(params, std::move(registry), std::move(vrf));
}
}  // namespace

Env Env::make(std::size_t n, double epsilon, double d, std::uint64_t seed,
              bool strict) {
  return build_fast(committee::Params::derive(n, epsilon, d, strict), n,
                    seed);
}

Env Env::make_auto(std::size_t n, std::uint64_t seed) {
  return build_fast(committee::Params::derive_auto(n), n, seed);
}

Env Env::make_relaxed(std::size_t n, std::uint64_t seed) {
  return build_fast(committee::Params::derive(n, 0.25, 0.02, /*strict=*/false),
                    n, seed);
}

Env Env::make_relaxed_ddh(std::size_t n, std::uint64_t seed,
                          std::size_t group_bits) {
  auto vrf = std::make_shared<crypto::DdhVrf>(
      crypto::PrimeGroup::generate(group_bits, seed));
  // Ties the batch-verification DRBG combiner to the session seed, so
  // replays of a run fold proofs under identical scalars.
  vrf->set_batch_seed(seed);
  auto registry = std::make_shared<crypto::KeyRegistry>();
  Rng rng(seed ^ 0xdd11dd11dd11dd11ULL);
  for (std::size_t i = 0; i < n; ++i) {
    crypto::VrfKeyPair kp = vrf->keygen(rng);
    registry->register_keypair(static_cast<crypto::ProcessId>(i),
                               std::move(kp.sk), std::move(kp.pk));
  }
  return build(committee::Params::derive(n, 0.25, 0.02, /*strict=*/false),
               std::move(registry), std::move(vrf));
}

}  // namespace coincidence::core
