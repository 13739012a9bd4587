// Multi-instance agreement sessions over a single trusted setup.
//
// The paper (§3, comparison with Blum et al.) emphasizes that its setup —
// the PKI — "has to occur once and may be used for any number of BA
// instances". Session packages that: one Env (keys, VRF, sampler), any
// number of agreement slots, run either concurrently inside one
// simulation (one network, messages of all slots interleaved by the
// adversary) or as a convenience loop of independent instances.
#pragma once

#include <cstdint>
#include <vector>

#include "ba/value.h"
#include "core/env.h"
#include "core/runner.h"

namespace coincidence::core {

struct SlotReport {
  bool all_correct_decided = false;
  std::optional<int> decision;
  bool agreement = true;
  std::uint64_t max_decided_round = 0;
  /// Highest round any correct process *entered* for this slot — unlike
  /// max_decided_round it is honest for wedged slots too (a slot stuck
  /// in round 0 reports 0 because round 0 is where it sat, not because
  /// the telemetry never fired).
  std::uint64_t max_round_reached = 0;
  /// Rounds advanced via the skip fallback (summed over correct
  /// processes) and decisions adopted from a forwarded certificate.
  std::uint64_t rounds_skipped = 0;
  std::uint64_t cert_decisions = 0;
  std::uint64_t correct_words = 0;  // attributed by slot tag prefix
};

struct SessionReport {
  std::vector<SlotReport> slots;
  std::uint64_t correct_words = 0;   // across all slots
  std::uint64_t messages = 0;
  std::uint64_t duration = 0;

  bool all_slots_decided() const {
    for (const auto& s : slots)
      if (!s.all_correct_decided) return false;
    return !slots.empty();
  }
};

class Session {
 public:
  /// One setup, reused by every slot (the §3 property).
  explicit Session(Env env);

  /// Routes every slot's share/election checks through the Env's shared
  /// BatchVerifier (see RunOptions::defer_verify). On by default; slot
  /// decisions and word counts are bit-identical either way.
  void set_defer_verify(bool on) { defer_verify_ = on; }

  /// Runs `inputs.size()` BA-WHP instances *concurrently* in a single
  /// simulation: every process participates in all slots at once;
  /// inputs[slot][process] is its proposal for that slot. Committee seeds
  /// derive from the slot tag, so each slot gets fresh committees from
  /// the same keys. Every slot arms the round-skip fallback at
  /// ba::auto_skip_timeout(n, slots), so a slot whose committee draws
  /// fewer than W live members re-draws instead of wedging. Throws
  /// ConfigError when W > n − silent_faults: then no draw ever could.
  SessionReport run_concurrent_slots(
      const std::vector<std::vector<ba::Value>>& inputs, std::uint64_t seed,
      std::size_t silent_faults = 0, std::uint64_t max_rounds = 32);

  const Env& env() const { return env_; }

 private:
  Env env_;
  bool defer_verify_ = true;
};

}  // namespace coincidence::core
