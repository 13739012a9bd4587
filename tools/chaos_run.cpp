// chaos_run: drive a chaos-orchestrated agreement run (or a sweep of
// them) with online invariant checking, and print per-phase telemetry.
//
// Single run (replays exactly what a CHAOS-VIOLATION repro line names):
//   ./chaos_run --protocol ba-whp --n 32 --seed 7
//               [--schedule "partition@256+768:boundary=16,mode=hold"]
//               [--preset partition-hold|partition-drop|churn|storm|
//                         adaptive|combined]
//               [--adversary random|...|adaptive-corruption]
//               [--ones k] [--crash c --silent s --junk j
//                --crash-recover r --recover-after 5000]
//               [--reliable] [--no-defer-verify] [--expected 0|1]
//               [--quiet]
//   exit 0: run completed with zero invariant violations
//   exit 1: at least one violation (repro line printed on stderr)
//
// Sweep (the CI gate; every cell checks the full invariant catalog):
//   ./chaos_run --sweep 500 [--threads 0] [--seed 1] [--fail-out PATH]
//   Cells cycle deterministically through presets × protocols (weighted
//   toward the cheap n=4 shared-coin protocol) with distinct seeds. The
//   summary digest is an FNV-1a hash over every report's headline fields
//   — identical across --threads values by run_agreements_parallel's
//   order-preserving contract. Failing cells print repro lines (runner)
//   and are appended to --fail-out for CI artifact upload. exit 1 on any
//   violation or undecided cell.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/errors.h"
#include "common/parallel.h"
#include "core/runner.h"
#include "sim/chaos.h"
#include "sim/observer.h"

using namespace coincidence;
using C = sim::Counter;

namespace {

int fail(const std::string& message) {
  std::cerr << "chaos_run: " << message << '\n';
  return 2;
}

/// Prints the chaos event stream as it happens: phase begin/end with the
/// delivery tick, corruption and recovery events, partition blocks —
/// the human-readable counterpart of the repro triple.
class PhaseTelemetry final : public sim::Observer {
 public:
  void on_chaos_phase(std::size_t index, const char* kind, bool begin,
                      std::uint64_t at) override {
    if (begin) {
      phase_start_ = deliveries_in_phase_;
      std::cout << "[chaos] phase " << index << " (" << kind << ") begin @ "
                << at << '\n';
    } else {
      std::cout << "[chaos] phase " << index << " (" << kind << ") end @ "
                << at << "  (deliveries in phase: "
                << deliveries_in_phase_ - phase_start_
                << ", held: " << held_ << ", dropped: " << dropped_ << ")\n";
      held_ = dropped_ = 0;
    }
  }
  void on_partition_block(const sim::Message& /*msg*/, bool held) override {
    ++(held ? held_ : dropped_);
  }
  void on_deliver(const sim::Message& /*msg*/) override {
    ++deliveries_in_phase_;
  }
  void on_corrupt(sim::ProcessId target,
                  const sim::FaultPlan& plan) override {
    std::cout << "[chaos] corrupt p" << target << " (mode "
              << static_cast<int>(plan.mode) << ")\n";
  }
  void on_recover(sim::ProcessId target) override {
    std::cout << "[chaos] recover p" << target << '\n';
  }

 private:
  std::uint64_t deliveries_in_phase_ = 0;
  std::uint64_t phase_start_ = 0;
  std::uint64_t held_ = 0;
  std::uint64_t dropped_ = 0;
};

std::optional<core::AdversaryKind> adversary_from_name(
    const std::string& name) {
  if (name == "random") return core::AdversaryKind::kRandom;
  if (name == "fifo") return core::AdversaryKind::kFifo;
  if (name == "delay-senders") return core::AdversaryKind::kDelaySenders;
  if (name == "split") return core::AdversaryKind::kSplit;
  if (name == "heavy-tail") return core::AdversaryKind::kHeavyTail;
  if (name == "adaptive-corruption")
    return core::AdversaryKind::kAdaptiveCorruption;
  return std::nullopt;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Order-independent-of-thread-count digest of a sweep: folds the fields
/// that must be bit-identical between serial and parallel execution.
std::uint64_t digest_reports(const std::vector<core::RunReport>& reports) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& r : reports) {
    h = fnv1a(h, r.all_correct_decided ? 1 : 0);
    h = fnv1a(h, r.decision ? static_cast<std::uint64_t>(*r.decision + 1)
                            : 0);
    h = fnv1a(h, r.max_decided_round);
    h = fnv1a(h, r.correct_words);
    h = fnv1a(h, r.messages);
    h = fnv1a(h, r.corrupted);
    h = fnv1a(h, r.counters[C::kPartitionHeld]);
    h = fnv1a(h, r.counters[C::kPartitionDropped]);
    h = fnv1a(h, r.counters[C::kPartitionReleased]);
    h = fnv1a(h, r.counters[C::kStormCopies]);
    h = fnv1a(h, r.counters[C::kChurnCrashes]);
    h = fnv1a(h, r.invariant_violations.size());
  }
  return h;
}

/// One sweep cell: the deterministic (protocol, n, preset, adversary)
/// grid the CI gate cycles through, weighted so the expensive n=32
/// committee protocols appear but don't dominate wall-clock.
struct SweepCell {
  core::Protocol protocol;
  std::size_t n;
  std::string preset;
  core::AdversaryKind adversary;
};

std::vector<SweepCell> sweep_grid() {
  const std::vector<std::string>& presets =
      sim::ChaosSchedule::preset_names();
  std::vector<SweepCell> grid;
  // The n=4 shared-coin protocol is cheap: it carries the bulk of the
  // sweep (13 copies of each preset); the committee protocols get one
  // cell per preset each. 13*6 + 6 + 6 = 90 cells per full cycle.
  for (int copy = 0; copy < 13; ++copy)
    for (const std::string& p : presets)
      grid.push_back({core::Protocol::kMmrSharedCoin, 4, p,
                      p == "adaptive" || p == "combined"
                          ? core::AdversaryKind::kAdaptiveCorruption
                          : core::AdversaryKind::kRandom});
  for (const std::string& p : presets)
    grid.push_back({core::Protocol::kMmrWhpCoin, 32, p,
                    p == "adaptive" || p == "combined"
                        ? core::AdversaryKind::kAdaptiveCorruption
                        : core::AdversaryKind::kRandom});
  for (const std::string& p : presets)
    grid.push_back({core::Protocol::kBaWhp, 32, p,
                    p == "adaptive" || p == "combined"
                        ? core::AdversaryKind::kAdaptiveCorruption
                        : core::AdversaryKind::kRandom});
  return grid;
}

core::RunOptions cell_options(const SweepCell& cell, std::uint64_t seed) {
  core::RunOptions o;
  o.protocol = cell.protocol;
  o.n = cell.n;
  o.seed = seed;
  o.adversary = cell.adversary;
  o.chaos = sim::ChaosSchedule::preset(cell.preset, cell.n);
  o.check_invariants = true;
  // Drop-mode partitions lose packets for good: only a retransmitting
  // transport can promise liveness across them (satellite test in
  // tests/chaos covers the same combination whitebox).
  if (cell.preset == "partition-drop" || cell.preset == "combined") {
    o.reliable_channel = true;
    // A drop partition lasts up to 2 units (32n deliveries): give every
    // frame enough retries that exhausting the budget inside the window
    // is impossible — a dead-lettered protocol message stalls liveness.
    o.transport_retransmits = 64;
  }
  // Committee protocols at n=32: hunting the full f=(n-1)/3 can starve a
  // W-threshold quorum outright (asymptotic Chernoff margins don't hold
  // at toy n) — cap the hunter instead of reporting false liveness.
  if (cell.protocol == core::Protocol::kMmrWhpCoin) o.adaptive_victims = 2;
  // Unanimous-input cells double as validity oracles.
  if (seed % 2 == 0) {
    o.inputs.assign(o.n, ba::kOne);
    o.expected_decision = 1;
  } else {
    o.inputs.assign(o.n, ba::kZero);
    o.expected_decision = 0;
  }
  // Churn-heavy presets exercise crash-recovery of the static mix too.
  if (cell.preset == "churn" || cell.preset == "combined") {
    o.crash_recover = 1;
    o.recover_after = 64 * cell.n;
  }
  return o;
}

int run_sweep(const Args& args) {
  const auto total = static_cast<std::size_t>(args.get_int("sweep", 500));
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 0));
  const auto base_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string fail_out = args.get("fail-out", "");

  const std::vector<SweepCell> grid = sweep_grid();
  std::vector<core::RunOptions> options;
  std::vector<const SweepCell*> cells;
  options.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const SweepCell& cell = grid[i % grid.size()];
    options.push_back(cell_options(cell, base_seed + i));
    cells.push_back(&cell);
  }

  ThreadPool pool(threads);
  const std::vector<core::RunReport> reports =
      core::run_agreements_parallel(pool, options);

  std::size_t violated = 0, undecided = 0;
  std::uint64_t held = 0, dropped = 0, released = 0, storm = 0, churn = 0;
  std::ostringstream failures;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const core::RunReport& r = reports[i];
    held += r.counters[C::kPartitionHeld];
    dropped += r.counters[C::kPartitionDropped];
    released += r.counters[C::kPartitionReleased];
    storm += r.counters[C::kStormCopies];
    churn += r.counters[C::kChurnCrashes];
    const bool bad = !r.invariant_violations.empty() ||
                     !r.all_correct_decided || !r.agreement;
    if (!r.all_correct_decided) ++undecided;
    if (!r.invariant_violations.empty()) ++violated;
    if (bad) {
      failures << "seed=" << options[i].seed << " protocol="
               << core::protocol_name(options[i].protocol)
               << " n=" << options[i].n << " preset=" << cells[i]->preset
               << " decided=" << (r.all_correct_decided ? 1 : 0)
               << " violations=" << r.invariant_violations.size() << '\n';
      for (const std::string& v : r.invariant_violations)
        failures << "  " << v << '\n';
    }
    // The queue ledger must balance in every cell.
    if (r.verify_enqueued != r.verify_batch_flushed + r.verify_discarded) {
      ++violated;
      failures << "seed=" << options[i].seed
               << " verify ledger imbalance: enqueued=" << r.verify_enqueued
               << " flushed=" << r.verify_batch_flushed
               << " discarded=" << r.verify_discarded << '\n';
    }
  }

  std::cout << "chaos sweep: " << reports.size() << " configs ("
            << grid.size() << "-cell grid, seeds [" << base_seed << ", "
            << base_seed + total - 1 << "])\n"
            << "  partition held/dropped/released: " << held << '/' << dropped
            << '/' << released << "\n  storm copies: " << storm
            << "\n  churn crashes: " << churn << "\n  undecided: "
            << undecided << "\n  invariant violations: " << violated
            << "\n  digest: " << std::hex << digest_reports(reports)
            << std::dec << '\n';

  const std::string fail_text = failures.str();
  if (!fail_text.empty()) {
    std::cerr << fail_text;
    if (!fail_out.empty()) {
      std::ofstream out(fail_out);
      out << fail_text;
      std::cout << "failing seeds -> " << fail_out << '\n';
    }
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);

  if (args.get_bool("list-presets", false)) {
    for (const std::string& p : sim::ChaosSchedule::preset_names())
      std::cout << p << ": "
                << sim::ChaosSchedule::preset(p, 32).spec() << '\n';
    return 0;
  }
  if (args.has("sweep")) return run_sweep(args);

  core::RunOptions o;
  const std::string proto_name = args.get("protocol", "ba-whp");
  auto proto = core::protocol_from_name(proto_name);
  if (!proto) return fail("unknown --protocol " + proto_name);
  o.protocol = *proto;
  o.n = static_cast<std::size_t>(args.get_int("n", 32));
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  o.max_rounds = static_cast<std::uint64_t>(args.get_int("max-rounds", 64));
  o.crash = static_cast<std::size_t>(args.get_int("crash", 0));
  o.silent = static_cast<std::size_t>(args.get_int("silent", 0));
  o.junk = static_cast<std::size_t>(args.get_int("junk", 0));
  o.crash_recover =
      static_cast<std::size_t>(args.get_int("crash-recover", 0));
  o.recover_after =
      static_cast<std::uint64_t>(args.get_int("recover-after", 5000));
  o.reliable_channel = args.get_bool("reliable", false);
  o.transport_retransmits =
      static_cast<std::uint32_t>(args.get_int("retransmits", 24));
  o.defer_verify = !args.get_bool("no-defer-verify", false);
  o.check_invariants = true;
  if (args.has("adaptive-victims"))
    o.adaptive_victims =
        static_cast<std::size_t>(args.get_int("adaptive-victims", 0));

  const std::string adv = args.get("adversary", "random");
  auto kind = adversary_from_name(adv);
  if (!kind) return fail("unknown --adversary " + adv);
  o.adversary = *kind;

  const auto ones = static_cast<std::size_t>(args.get_int("ones", 0));
  o.inputs.assign(o.n, ba::kZero);
  for (std::size_t i = 0; i < ones && i < o.n; ++i) o.inputs[i] = ba::kOne;
  if (ones == 0) o.expected_decision = 0;
  else if (ones >= o.n) o.expected_decision = 1;
  if (args.has("expected"))
    o.expected_decision = static_cast<int>(args.get_int("expected", 0));

  try {
    if (args.has("preset"))
      o.chaos = sim::ChaosSchedule::preset(args.get("preset", ""), o.n);
    else if (args.has("schedule"))
      o.chaos = sim::ChaosSchedule::parse(args.get("schedule", ""));
  } catch (const ConfigError& e) {
    return fail(e.what());
  }

  core::RunInstruments instruments;
  const bool quiet = args.get_bool("quiet", false);
  if (!quiet) instruments.observers.push_back(
      std::make_shared<PhaseTelemetry>());

  const core::RunReport r = core::run_agreement(o, instruments);

  std::cout << "chaos_run — " << core::protocol_name(o.protocol)
            << "  n=" << o.n << "  seed=" << o.seed << "  adversary=" << adv
            << "\n  schedule: "
            << (o.chaos.empty() ? std::string("(none)") : o.chaos.spec())
            << "\n  decided: "
            << (r.all_correct_decided ? "all correct" : "NOT ALL");
  if (r.decision) std::cout << "  decision=" << *r.decision;
  const sim::Counters& c = r.counters;
  std::cout << "  rounds<=" << r.max_decided_round
            << "\n  corrupted: " << r.corrupted << " (of f=" << r.protocol_f
            << ")  churn crashes: " << c[C::kChurnCrashes]
            << "\n  partition held/dropped/released: "
            << c[C::kPartitionHeld] << '/' << c[C::kPartitionDropped] << '/'
            << c[C::kPartitionReleased]
            << "  storm copies: " << c[C::kStormCopies]
            << "\n  transport: retransmits=" << c[C::kRetransmits]
            << " dead letters=" << c[C::kDeadLetters]
            << " (words=" << c[C::kDeadLetterWords] << ")"
            << "\n  verify ledger: enqueued=" << r.verify_enqueued
            << " flushed=" << r.verify_batch_flushed
            << " discarded=" << r.verify_discarded
            << (r.verify_enqueued ==
                        r.verify_batch_flushed + r.verify_discarded
                    ? " (balanced)"
                    : " IMBALANCED")
            << "\n  invariants: "
            << (r.invariant_violations.empty() ? "all hold"
                                               : "VIOLATED")
            << '\n';
  for (const std::string& v : r.invariant_violations)
    std::cout << "  " << v << '\n';

  const bool ledger_ok =
      r.verify_enqueued == r.verify_batch_flushed + r.verify_discarded;
  return r.invariant_violations.empty() && ledger_ok ? 0 : 1;
}
