// Harness driver for the replicated-log layer: one call from an Env and
// a set of options to a finished LogReport — the session-layer analogue
// of core::run_agreement. Runs n LogProcesses in one Simulation (legacy
// or sharded engine, per options), waits until every correct process
// committed the full log, and distils throughput / latency / agreement
// telemetry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ba/ba_whp.h"
#include "core/env.h"
#include "session/replicated_log.h"

namespace coincidence::session {

struct LogRunOptions {
  std::size_t slots = 8;
  std::size_t pipeline_depth = 4;
  std::size_t batch_size = 4;
  std::size_t silent_faults = 0;
  std::uint64_t sim_seed = 1;

  /// Sharded superstep engine (sim/simulation.h). 0 = legacy loop.
  std::size_t shards = 0;
  std::size_t threads = 0;

  std::uint64_t max_rounds = 32;
  /// Cap on a slot's f + 1 broadcasters (LogConfig::max_candidates).
  std::size_t max_candidates = 8;
  std::uint64_t client_seed = 0xC11E57;

  /// Proposal-dissemination backend for every slot (ba/broadcast.h).
  ba::RbcBackend rbc = ba::RbcBackend::kBracha;
};

struct LogReport {
  std::size_t slots = 0;
  /// Every correct process committed every slot.
  bool all_committed = false;
  /// All correct processes' committed logs are byte-identical.
  bool agreement = true;
  std::uint64_t requests_committed = 0;  // per correct process
  std::size_t noop_slots = 0;

  std::uint64_t deliveries = 0;
  std::uint64_t correct_words = 0;
  /// The part of correct_words sent by the proposal broadcasts (tags
  /// with an "/rbc/" component).
  std::uint64_t rbc_words = 0;
  std::uint64_t messages = 0;
  std::uint64_t duration = 0;  // max causal depth
  std::uint64_t words_per_slot = 0;
  /// Committed requests per 100k delivery events — the simulator's
  /// clock-free "requests/s".
  double requests_per_100k_deliveries = 0.0;

  /// Slot activation -> local decision, across all correct processes
  /// and slots, in delivery events.
  std::uint64_t decide_latency_p50 = 0;
  std::uint64_t decide_latency_p90 = 0;
  std::uint64_t decide_latency_max = 0;

  /// Candidate BAs a slot activated, averaged over every correct
  /// process's activated slots, committed or not: 1 when every slot
  /// adopts its first-ranked proposer.
  double candidates_per_slot = 0.0;
  std::uint64_t rounds_skipped = 0;  // summed over processes and slots
  std::uint64_t max_decided_round = 0;
  /// Hex log fingerprint shared by the correct processes (empty until
  /// the first correct process commits the full log).
  std::string fingerprint;
};

/// Every inner BA arms the round-skip fallback at
/// auto_skip_timeout(n, pipeline_depth) (ba_whp.h).
using ba::auto_skip_timeout;

/// Throws ConfigError when W > n − opts.silent_faults: no committee
/// could then gather a quorum, and no slot would ever commit.
LogReport run_replicated_log(const core::Env& env,
                             const LogRunOptions& opts);

}  // namespace coincidence::session
