#include "core/env.h"

#include "crypto/ddh_vrf.h"
#include "crypto/fast_vrf.h"

namespace coincidence::core {

namespace {
Env build(committee::Params params, std::size_t n, std::uint64_t seed) {
  Env env;
  env.params = params;
  env.registry = crypto::KeyRegistry::create_for(n, seed);
  env.vrf = std::make_shared<crypto::FastVrf>(env.registry);
  env.signer = std::make_shared<crypto::Signer>(env.registry);
  Env::CryptoLane lane = env.new_lane();
  env.sampler = std::move(lane.sampler);
  env.batcher = std::move(lane.batcher);
  return env;
}
}  // namespace

Env Env::make(std::size_t n, double epsilon, double d, std::uint64_t seed,
              bool strict) {
  return build(committee::Params::derive(n, epsilon, d, strict), n, seed);
}

Env Env::make_auto(std::size_t n, std::uint64_t seed) {
  return build(committee::Params::derive_auto(n), n, seed);
}

Env Env::make_relaxed(std::size_t n, std::uint64_t seed) {
  return build(committee::Params::derive(n, 0.25, 0.02, /*strict=*/false), n,
               seed);
}

Env Env::make_relaxed_ddh(std::size_t n, std::uint64_t seed,
                          std::size_t group_bits) {
  Env env;
  env.params = committee::Params::derive(n, 0.25, 0.02, /*strict=*/false);
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
  env.registry = std::move(registry);
  env.vrf = std::move(vrf);
  env.signer = std::make_shared<crypto::Signer>(env.registry);
  Env::CryptoLane lane = env.new_lane();
  env.sampler = std::move(lane.sampler);
  env.batcher = std::move(lane.batcher);
  return env;
}

Env::CryptoLane Env::new_lane() const {
  auto lane_sampler = std::make_shared<committee::CachingSampler>(
      vrf, registry, params.sample_prob());
  auto lane_batcher = std::make_shared<coin::BatchVerifier>(
      coin::BatchVerifier::Config{vrf, lane_sampler, signer});
  return {std::move(lane_sampler), std::move(lane_batcher)};
}

}  // namespace coincidence::core
