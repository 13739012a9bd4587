// The cluster environment: everything §2 assumes exists before the
// protocol starts — the PKI (key registry), the VRF, the committee
// sampler and the signature scheme — bundled behind one factory so
// applications can go from (n, ε, d, seed) to a runnable cluster in one
// call.
#pragma once

#include <cstdint>
#include <memory>

#include "coin/verify_queue.h"
#include "committee/params.h"
#include "committee/sampler.h"
#include "crypto/key_registry.h"
#include "crypto/signer.h"
#include "crypto/vrf.h"

namespace coincidence::core {

struct Env {
  committee::Params params;
  std::shared_ptr<crypto::KeyRegistry> registry;
  std::shared_ptr<crypto::Vrf> vrf;
  std::shared_ptr<committee::Sampler> sampler;
  std::shared_ptr<crypto::Signer> signer;
  /// Shared batch-verification service (coin/verify_queue.h): memoized,
  /// folded VRF + election checks for every process of a run. Like the
  /// sampler's cache it assumes single-threaded use — share it within
  /// one Simulation, never across concurrently-running ones (each
  /// run_agreement builds its own Env, so parallel drivers are safe).
  std::shared_ptr<coin::BatchVerifier> batcher;

  std::size_t n() const { return params.n; }
  std::size_t f() const { return params.f; }

  /// A fresh sampler cache and BatchVerifier over this Env's keys. The
  /// sharded engine runs handlers concurrently, so every process of a
  /// sharded run takes its own lane instead of the shared `sampler` and
  /// `batcher`. Verdicts are pure functions of their inputs, so
  /// decisions, sends and words match the shared wiring; only
  /// cross-process memo hits (and wall-clock) differ.
  struct CryptoLane {
    std::shared_ptr<committee::Sampler> sampler;
    std::shared_ptr<coin::BatchVerifier> batcher;
  };
  CryptoLane new_lane() const;

  /// Builds an environment with explicit parameters. strict=true enforces
  /// the paper's ε/d windows (§2, §5.1); strict=false waives the
  /// lower-bound constants for small-n exploration (DESIGN.md §6).
  /// The FastVrf backend is used — see DESIGN.md's substitution table.
  static Env make(std::size_t n, double epsilon, double d,
                  std::uint64_t seed, bool strict = true);

  /// Strict parameters at the window midpoints; throws ConfigError when n
  /// is below committee::min_feasible_n().
  static Env make_auto(std::size_t n, std::uint64_t seed);

  /// The relaxed small-n configuration used across tests and benches
  /// (ε = 0.25, d = 0.02, strict = false).
  static Env make_relaxed(std::size_t n, std::uint64_t seed);

  /// Same wiring but with the *real* DDH-VRF over a `bits`-bit safe-prime
  /// group (fresh keypairs per process, registered in the PKI). Orders of
  /// magnitude slower than FastVrf (see bench/micro_crypto); meant for
  /// small-n end-to-end checks that the two backends are interchangeable.
  static Env make_relaxed_ddh(std::size_t n, std::uint64_t seed,
                              std::size_t group_bits = 96);
};

}  // namespace coincidence::core
