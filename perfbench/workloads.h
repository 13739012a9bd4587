// The benchmark's workloads and the two ways of running one operation:
//
//  * untraced, through the public drivers the system's users call
//    (session::run_replicated_log on a core::Env, core::run_agreement);
//  * traced, rebuilt from the same public parts with every process behind
//    a ProcessShim and the VRF / sampler behind their decorators
//    (trace.h).
//
// Both produce an Outcome: the deterministic result of the operation. A
// traced replay, or a repeat of the same operation, must reproduce it
// exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ba/broadcast.h"
#include "core/env.h"
#include "trace.h"

namespace perfbench {

enum class Kind { kLog, kBa };

struct Workload {
  std::string name;
  Kind kind = Kind::kLog;
  std::size_t n = 48;
  std::size_t silent = 2;
  /// Distinct operations (each with its own seeds) in one pass of a run.
  std::size_t ops = 1;
  /// Operations the traced run replays (a prefix of the pass).
  std::size_t traced_ops = 1;

  // Replicated log: one operation is a `slots`-slot log (the driver's
  // pipeline depth of 4 keeps every slot in flight).
  std::size_t slots = 2;
  std::size_t batch = 64;
  ba::RbcBackend rbc = ba::RbcBackend::kBracha;
  std::size_t ddh_bits = 0;  // 0 = FastVrf; otherwise a DDH group size

  // Binary BA: one operation is one caller's decision, run_agreement
  // instances until one decides (at most kMaxBaAttempts).
  double d = 0.02;
  std::size_t shards = 0;
  std::size_t threads = 0;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);
/// The same workload at a size the smoke test runs in seconds.
Workload tiny(const Workload& w);

/// Seeds of operation `index` of a run with workload seed `seed`.
struct OpSpec {
  std::uint64_t env_seed = 0;
  std::uint64_t sim_seed = 0;
  std::uint64_t client_seed = 0;  // log request stream; BA input value
};
OpSpec op_spec(const Workload& w, std::uint64_t seed, std::size_t index);

/// The set-up a user pays before the first operation: the core::Env
/// factory (key registry, VRF keys, DDH group). For the BA workload this
/// is the same Env::make call run_agreement performs internally.
core::Env make_env(const Workload& w, const OpSpec& op);

struct Outcome {
  std::uint64_t attempted = 0;  // slots, or 1 BA decision
  std::uint64_t failed = 0;     // slots not committed / no instance decided
  std::uint64_t requests = 0;   // requests committed; BA: decisions
  std::uint64_t decisions = 0;  // slots committed; BA: decisions
  std::uint64_t deliveries = 0;
  std::uint64_t correct_words = 0;
  std::uint64_t messages = 0;
  std::uint64_t causal_depth = 0;
  std::uint64_t latency_p50 = 0;  // decide latency, delivery events
  std::uint64_t latency_p90 = 0;
  /// Every correct process's decide latency (BA only; the log driver
  /// reports percentiles, not samples).
  std::vector<std::uint64_t> latencies;
  std::string fingerprint;  // committed-log hash; BA: decision and round
  bool agreement = true;
  /// BA only: instances run for this operation, and how many of them
  /// wedged undecided in the committee tail (each wedge is retried with
  /// a fresh instance; its deliveries and words are charged to the
  /// operation, its latency is not).
  std::uint64_t instances = 0;
  std::uint64_t undecided = 0;

  /// Empty when `other` reproduces this outcome; otherwise the first
  /// differing field.
  std::string mismatch(const Outcome& other) const;
};

/// Instances a BA operation may run before it counts as failed.
inline constexpr std::size_t kMaxBaAttempts = 4;

/// Runs one operation through the public driver. `wall_s` receives the
/// driver call's wall time (set-up excluded for the log).
Outcome run_untraced(const Workload& w, const OpSpec& op, double& wall_s);

/// Per-layer view of one traced operation.
struct TracedRun {
  Outcome outcome;
  double wall_s = 0;        // start() + run_until(), the traced window
  std::size_t threads = 1;  // handler threads the ledger is spread over
  Ledger ledger;            // summed over threads
  std::vector<std::uint64_t> words_by_family;  // kFamilies entries
  std::uint64_t sample_misses = 0;
  // Library counters read after the run.
  std::uint64_t supersteps = 0;
  std::uint64_t merge_stalls = 0;
  std::uint64_t rounds_skipped = 0;
  std::uint64_t max_round = 0;
  double candidates_per_slot = 0;
  std::uint64_t noop_slots = 0;
  std::uint64_t verify_shares = 0;
  std::uint64_t verify_rejects = 0;
  std::uint64_t verify_memo_hits = 0;
  std::uint64_t sig_checks = 0;
  std::uint64_t sig_memo_hits = 0;
  std::uint64_t rs_encodes = 0;
  std::uint64_t rs_decodes = 0;
  std::uint64_t decode_failures = 0;
  /// Correctness findings of the traced run (empty = clean).
  std::vector<std::string> violations;

  /// Adds `part`'s layer counters, times and findings (not its outcome).
  /// `candidates_per_slot` adds up too; divide by the parts added.
  void add(const TracedRun& part);
};

TracedRun run_traced(const Workload& w, const OpSpec& op);

/// A correct process's committed log, as the validity checks see it.
using CommittedLog = std::vector<Bytes>;

/// Log-level safety checks: every log equals the first one, every entry
/// is the no-op or exactly some proposer's batch for that slot
/// (`proposals[slot]` lists the candidates), and no request token is
/// committed twice. Returns one line per violation.
std::vector<std::string> check_logs(
    const std::vector<CommittedLog>& logs,
    const std::vector<std::vector<Bytes>>& proposals);

}  // namespace perfbench
