// One-call experiment runner: pick a protocol, an adversary, a fault mix
// and inputs; get back decisions + the paper's metrics. This is the
// public API the examples and every bench binary drive.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ba/broadcast.h"
#include "ba/value.h"
#include "common/args.h"
#include "common/parallel.h"
#include "core/env.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/link.h"
#include "sim/metrics.h"
#include "sim/observer.h"

namespace coincidence::core {

/// Every agreement protocol in the repo, including the Table-1 baselines.
enum class Protocol {
  kBaWhp,          // this paper: Algorithm 4 (committees + WHP coin)
  kMmrSharedCoin,  // MMR skeleton + Algorithm 1 coin: O(n²), VRF-based
  kMmrWhpCoin,     // ablation: MMR skeleton + Algorithm 2 committee coin —
                   // isolates the coin's Õ(n) saving from the approver's
                   // λ² overhead (see DESIGN.md §4). NOTE: its effective
                   // resilience is the MIN of MMR's (n-1)/3 and the coin
                   // committees' (1/3-ε)n — it is an instrumented hybrid,
                   // not a protocol the paper claims.
  kMmrDealerCoin,  // MMR skeleton + Rabin-style dealer coin
  kBenOr,          // local coin, n > 5f
  kBracha,         // local coin over reliable broadcast, n > 3f
};

const char* protocol_name(Protocol p);
std::optional<Protocol> protocol_from_name(const std::string& name);
/// All protocols, in Table-1 comparison order.
const std::vector<Protocol>& all_protocols();
/// Minimum n for which `p` can run with at least one tolerated fault.
std::size_t min_n_for(Protocol p);

enum class AdversaryKind {
  kRandom,        // benign asynchrony
  kFifo,          // synchronous-like delivery
  kDelaySenders,  // starve the first f processes' messages
  kSplit,         // delay cross-partition traffic
  kHeavyTail,     // Pareto message delays (WAN-like stragglers)
  /// Delayed-adaptive hunter (sim::AdaptiveCorruptionAdversary): corrupts
  /// committee members as they reveal themselves by speaking, within
  /// whatever corruption budget the static fault mix and the chaos
  /// schedule leave free. Legal per Definition 2.1 (docs/CHAOS.md).
  kAdaptiveCorruption,
};

const char* adversary_name(AdversaryKind a);
std::optional<AdversaryKind> adversary_from_name(const std::string& name);

struct RunOptions {
  Protocol protocol = Protocol::kBaWhp;
  std::size_t n = 64;
  std::uint64_t seed = 1;
  /// Inputs per process; sized n (default: all zero).
  std::vector<ba::Value> inputs;

  // Parameters for the committee-based protocols.
  double epsilon = 0.25;
  double d = 0.02;

  AdversaryKind adversary = AdversaryKind::kRandom;

  /// Fault mix, applied to the highest process ids (so inputs of low ids
  /// stay meaningful). Total must stay within the protocol's resilience.
  std::size_t crash = 0;
  std::size_t silent = 0;
  std::size_t junk = 0;
  /// Crash-recover faults: down for `recover_after` deliveries, then
  /// restarted via Process::on_recover. Counts against resilience like
  /// any corruption (the adversary spent budget on it).
  std::size_t crash_recover = 0;
  std::uint64_t recover_after = 5000;

  /// Link-fault profile for the underlying network (default: reliable,
  /// zero overhead — legacy runs are bit-identical).
  sim::NetworkProfile network;
  /// Wraps every process in net::ReliableProcess, restoring exactly-once
  /// delivery on top of a lossy `network`. Adds "net/dat"/"net/ack"
  /// framing; retransmission words are reported separately.
  bool reliable_channel = false;
  /// Per-frame give-up bound for the reliable channel (its
  /// ReliableChannelConfig::max_retransmits). The default survives lossy
  /// links; runs scheduling long drop-mode chaos partitions should raise
  /// it — a frame whose every retry falls inside the partition window
  /// burns budget without ever reaching the wire's good period, and a
  /// dead-lettered protocol message can stall liveness (safety holds
  /// regardless).
  std::uint32_t transport_retransmits = 24;

  /// Routes coin-share and election-proof checks through the Env's
  /// BatchVerifier (deferred queues + folded batch verification,
  /// coin/verify_queue.h) instead of inline per-message verification.
  /// Decisions, sends and metrics words are bit-identical either way;
  /// only the verify_* counters (and wall-clock) differ. Applies to the
  /// VRF-backed protocols (kBaWhp, kMmrWhpCoin, kMmrSharedCoin).
  bool defer_verify = true;

  std::uint64_t max_rounds = 64;

  /// Reliable-broadcast backend for the protocols that disseminate over
  /// RBC (kBracha today): classic full-value echoes or erasure-coded
  /// AVID-M fragments (ba/broadcast.h). Ignored by the others.
  ba::RbcBackend rbc = ba::RbcBackend::kBracha;

  /// Sharded superstep engine (SimConfig::shards): 0 = the legacy
  /// sequential loop; k >= 1 partitions delivery across k shards with a
  /// hash-addressed schedule that is bit-identical for every shard and
  /// thread count (DESIGN.md §5g). Scheduling adversaries (`adversary`)
  /// are bypassed in sharded mode; corruption adversaries still act.
  /// Every process shares the Env's sampler and BatchVerifier on both
  /// engines; concurrent handlers only read their caches, and the writes
  /// land at each superstep barrier (common/write_sink.h).
  std::size_t shards = 0;
  /// Worker threads for the sharded engine (0 = min(shards, hardware)).
  std::size_t threads = 0;

  /// Chaos schedule (sim/chaos.h) executed by the simulation on the
  /// delivery clock: healing partitions, churn waves, storm bursts.
  /// Churn-wave victims need corruption budget, so the runner widens the
  /// simulation's f (never beyond the protocol's resilience) to
  /// accommodate them on top of the static fault mix.
  sim::ChaosSchedule chaos;
  /// Attaches a sim::InvariantChecker to the run and reports its
  /// violations (RunReport::invariant_violations); on any violation the
  /// runner also prints a one-line copy-pasteable repro — the exact
  /// (seed, config, schedule-phase) triple — to stderr.
  bool check_invariants = false;
  /// Validity oracle for the checker: when every correct process got the
  /// same input, that value is the only legal decision.
  std::optional<int> expected_decision;
  /// Victim cap for kAdaptiveCorruption (default: whatever corruption
  /// budget the fault mix and churn waves leave free, up to f). Small-n
  /// committee runs want a lower cap: silencing close to f processes can
  /// legitimately starve a W-threshold committee quorum — a model limit,
  /// not a protocol bug (the Chernoff margins S1–S6 are asymptotic).
  std::size_t adaptive_victims = static_cast<std::size_t>(-1);
};

struct RunReport {
  bool all_correct_decided = false;
  bool agreement = false;               // no two correct decided differently
  std::optional<int> decision;          // the unanimous decision, if any
  std::uint64_t max_decided_round = 0;  // paper "constant expected rounds"
  std::uint64_t correct_words = 0;      // paper word complexity
  std::uint64_t messages = 0;
  std::uint64_t duration = 0;  // longest causal chain (paper "time")
  std::map<std::string, std::uint64_t> words_by_tag;
  std::size_t faulty = 0;
  std::size_t protocol_f = 0;  // the f the protocol was configured with

  /// The run's Metrics counters (sim/counters.h): link faults,
  /// transport repair, dead letters, deferred verification, erasure
  /// coding and chaos events. All zero when the run had none of them.
  sim::Counters counters;
  // Signature checks routed through the shared BatchVerifier (flush
  // batches + memoized echo singles); memo_hit_rate = sig_memo_hits /
  // sig_checks is the cross-receiver dedup factor.
  std::uint64_t sig_checks = 0;
  std::uint64_t sig_memo_hits = 0;
  // BatchVerifier queue ledger, read after every coin has retired. The
  // conservation law verify_enqueued == verify_batch_flushed +
  // verify_discarded must hold for every run — crash-recovery must
  // neither lose nor double-count a deferred share.
  std::uint64_t verify_enqueued = 0;
  std::uint64_t verify_batch_flushed = 0;
  std::uint64_t verify_discarded = 0;

  std::size_t corrupted = 0;  // final corrupted count (static + churn + hunt)
  /// InvariantChecker::describe lines (empty = run passed all checks, or
  /// check_invariants was off).
  std::vector<std::string> invariant_violations;

  // Sharded-engine telemetry (zero/empty on the legacy path). Lives here
  // — not in Metrics — so metrics exports stay byte-identical across
  // shard counts; run_report renders it in the human-readable section.
  std::size_t shards = 0;
  std::uint64_t supersteps = 0;
  /// Idle shard-supersteps at the exchange barrier (load imbalance).
  std::uint64_t merge_stalls = 0;
  /// Deliveries committed per shard, in shard order.
  std::vector<std::uint64_t> shard_deliveries;
};

/// Instrumentation to attach to a run without changing its behaviour:
/// runs with and without instruments are delivery-for-delivery identical
/// (observers are passive; detail metrics only record extra histograms).
struct RunInstruments {
  /// Attached to the Simulation before start(), in order.
  std::vector<std::shared_ptr<sim::Observer>> observers;
  /// Switches on Metrics per-tag/per-phase histograms (words, causal
  /// depth, delivery latency).
  bool detailed_metrics = false;
  /// Called with the run's final Metrics before the Simulation is torn
  /// down — the escape hatch for JSON/Prometheus export and report
  /// tooling (RunReport carries only the headline numbers).
  std::function<void(const sim::Metrics&)> metrics_out;
};

/// Runs one agreement instance to completion (or whp-failure quiescence),
/// with any telemetry in `instruments` attached (tools/run_report).
RunReport run_agreement(const RunOptions& options,
                        const RunInstruments& instruments = {});

/// The Env run_agreement builds for `options`: FastVrf keys and relaxed
/// committee parameters from (n, epsilon, d), seeded from the run seed.
Env env_for(const RunOptions& options);

/// Same run on a caller's Env (env.n() == options.n), which lets the
/// caller inspect the Env's shared caches afterwards. The report's
/// verify and signature counters read the Env's BatchVerifier, which
/// counts from its construction: give each run a fresh Env (env_for),
/// and never share one between concurrent runs.
RunReport run_agreement(const RunOptions& options, const Env& env,
                        const RunInstruments& instruments = {});

/// Reads the run flags that run_report and chaos_run share; each flag
/// sets the RunOptions field of the same meaning:
///   --protocol --adversary --rbc --n --seed --epsilon --d --max-rounds
///   --crash --silent --junk --crash-recover --recover-after
///   --drop --dup --replay --reliable-channel --retransmits
///   --adaptive-victims --no-defer-verify --shards --sim-threads
///   --ones k (the first k processes propose 1) --expected 0|1
///   --preset NAME | --schedule SPEC (sim/chaos.h)
/// A flag that is absent keeps the value `o` arrives with, so a tool
/// pre-fills only its own defaults (the ones-prefix default is the
/// leading ones of `o.inputs`). The expected decision follows the
/// inputs (0 for k = 0, 1 for k >= n) unless --expected says otherwise.
/// Throws ConfigError on an unknown name, a bad schedule, or --shards
/// with a scheduling adversary.
RunOptions parse_run_options(const Args& args, RunOptions o = {});

/// The one-line `chaos_run` command that replays the run, printed on every
/// invariant violation: every field parse_run_options reads that differs
/// from RunOptions{}. What no flag can carry (inputs that are not a
/// ones-prefix, link overrides, max_duplicates, replay_window) gets a
/// trailing `#` note.
std::string repro_command(const RunOptions& o);

/// Runs every RunOptions to completion on the pool — the fan-out for
/// chaos sweeps, success-rate estimates and word-scaling curves. Each run
/// builds its own Env/Simulation from its seeded options, so runs share
/// no mutable state; reports[i] is byte-identical to a serial
/// run_agreement(options[i]) whatever the thread count, because results
/// merge in input order, not completion order.
std::vector<RunReport> run_agreements_parallel(
    ThreadPool& pool, const std::vector<RunOptions>& options);

}  // namespace coincidence::core
