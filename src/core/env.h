// The cluster environment: the §3 setup (coin/setup.h) — PKI, VRF,
// committee sampler, signer and the run-wide BatchVerifier — behind
// factories, so applications go from (n, ε, d, seed) to a runnable
// cluster in one call. Every protocol config inherits coin::Setup, so
// drivers hand an Env down with one copy.
#pragma once

#include <cstdint>

#include "coin/setup.h"

namespace coincidence::core {

struct Env : coin::Setup {
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
