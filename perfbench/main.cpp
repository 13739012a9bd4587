// perfbench: one end-to-end benchmark of the replicated log and BA-WHP.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <sha>]
//   perfbench --smoke
//
// --trace 0 measures the end-to-end metrics with no tracing attached.
// --trace 1 replays a prefix of the same operations untraced and traced,
// checks that both produce identical results, and reports the per-layer
// metrics. The last stdout line is the result object; the line before it
// is the machine context. The exit code is non-zero when a correctness
// check fails. perfbench/README.md describes the workloads and metrics.
#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cpuid.h>
#include <cstdlib>
#include <iostream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "host_probe.h"
#include "micro.h"
#include "workloads.h"

using namespace perfbench;

// --- allocation counter (sim.allocs_per_delivery) -----------------------

namespace {

std::atomic<bool> g_count_allocs{false};
struct alignas(64) AllocCounter {
  std::atomic<std::uint64_t> count{0};
};
constexpr std::size_t kAllocCounters = 16;
AllocCounter g_allocs[kAllocCounters];
std::atomic<std::size_t> g_next_counter{0};
thread_local std::size_t t_counter = kAllocCounters;  // unassigned

std::uint64_t allocations() {
  std::uint64_t sum = 0;
  for (const AllocCounter& c : g_allocs)
    sum += c.count.load(std::memory_order_relaxed);
  return sum;
}

}  // namespace

// Replaced as a set, so every allocation and release pairs malloc with
// free. Out of line: GCC otherwise flags the inlined pairs as mismatched.
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    if (t_counter == kAllocCounters)
      t_counter = g_next_counter.fetch_add(1, std::memory_order_relaxed) %
                  kAllocCounters;
    g_allocs[t_counter].count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}

__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

// --- JSON output ----------------------------------------------------------

std::string json_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, m] = metrics[i];
    os << (i ? ", " : "") << json_string(name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// --- machine context ------------------------------------------------------

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b >> 29) & 1U;
}

bool cpu_has_avx2() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b >> 5) & 1U;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Context {
  std::vector<std::pair<std::string, std::string>> fields;  // raw JSON

  void add(const std::string& key, const std::string& json_value) {
    fields.emplace_back(key, json_value);
  }
  void print() const {
    std::ostringstream os;
    os << "{\"context\": {";
    for (std::size_t i = 0; i < fields.size(); ++i)
      os << (i ? ", " : "") << json_string(fields[i].first) << ": "
         << fields[i].second;
    os << "}}";
    std::cout << os.str() << std::endl;
  }
};

Context machine_context(const Workload& w, std::uint64_t seed, bool trace,
                        const std::string& commit) {
  Context ctx;
  ctx.add("workload", json_string(w.name));
  ctx.add("seed", std::to_string(seed));
  ctx.add("trace", trace ? "1" : "0");
  ctx.add("nproc", std::to_string(std::thread::hardware_concurrency()));
  ctx.add("sha_ni", cpu_has_sha_ni() ? "true" : "false");
  ctx.add("avx2", cpu_has_avx2() ? "true" : "false");
  ctx.add("compiler", json_string(PERFBENCH_COMPILER));
  ctx.add("build_type", json_string(PERFBENCH_BUILD_TYPE));
  ctx.add("git_commit", json_string(commit));
  return ctx;
}

std::string json_list(const std::vector<std::string>& items, bool quote) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ", " : "") + (quote ? json_string(items[i]) : items[i]);
  return out + "]";
}

// --- untraced run: the end-to-end metrics --------------------------------

struct OpRecord {
  OpSpec spec;
  Outcome outcome;
  std::vector<double> walls;        // as measured
  std::vector<double> tick_s;       // the sampler's mean tick during each
  std::vector<double> quiet_walls;  // scaled to an uncontended host
};

/// The set-up a user pays per cluster, timed over nine fixed key seeds in
/// whole cycles, so every seed gets the same number of samples (a DDH
/// group search takes 4 to 35 ms depending on the seed). The value is the
/// mean of the per-seed medians, whatever number of cycles fits in a run,
/// scaled by the mean tick of all the set-up timing (host_probe.h).
class SetupTimes {
 public:
  void cycle(const Workload& w) {
    const Ticks before = ticks();
    for (std::size_t i = 0; i < kSeeds; ++i) {
      const OpSpec op = op_spec(w, /*seed=*/0, i);
      const auto t0 = Clock::now();
      const core::Env env = make_env(w, op);
      const double s = seconds_since(t0);
      samples_[i].push_back(s);
      spent_s_ += s;
    }
    const Ticks t = ticks() - before;
    ticks_.busy_s += t.busy_s;
    ticks_.count += t.count;
  }
  double value() const {
    double sum = 0;
    for (const auto& s : samples_) sum += median(s);
    return sum / kSeeds * quiet_factor(ticks_.mean_s());
  }
  std::size_t cycles() const { return samples_[0].size(); }
  double spent_s() const { return spent_s_; }
  const Ticks& sampled() const { return ticks_; }

 private:
  static constexpr std::size_t kSeeds = 9;
  std::array<std::vector<double>, kSeeds> samples_;
  Ticks ticks_;
  double spent_s_ = 0;
};

int end_to_end_run(const Workload& w, std::uint64_t seed, double seconds,
                   Context ctx) {
  const auto start = Clock::now();
  // The sampler runs through the whole run; an operation's wall is scaled
  // by the mean tick while it ran.
  start_sampling();
  // Set-up cycles are spread over the whole run, because the host's speed
  // drifts: one every eighth of the run, and more while set-up timing has
  // taken under 3% of it, so a sub-millisecond set-up gets hundreds.
  SetupTimes setup;
  auto last_cycle = Clock::now();
  auto time_setups = [&] {
    do {
      setup.cycle(w);
    } while (setup.spent_s() < 0.03 * seconds_since(start));
    last_cycle = Clock::now();
  };
  time_setups();
  {
    // Warm-up: the first operation in a process pays its heap's
    // first-touch costs, which a long-running node pays once.
    double wall = 0;
    run_untraced(w, op_spec(w, seed, 0), wall);
  }

  std::vector<OpRecord> ops(w.ops);
  std::vector<std::string> violations;
  std::uint64_t attempted = 0, failed = 0;
  auto execute = [&](OpRecord& rec, bool first) {
    if (seconds_since(last_cycle) > seconds / 8 ||
        setup.spent_s() < 0.03 * seconds_since(start))
      time_setups();
    double wall = 0;
    const Ticks before = ticks();
    Outcome out = run_untraced(w, rec.spec, wall);
    const double tick_s = (ticks() - before).mean_s();
    rec.walls.push_back(wall);
    rec.tick_s.push_back(tick_s);
    rec.quiet_walls.push_back(wall * quiet_factor(tick_s));
    attempted += out.attempted;
    failed += out.failed;
    if (!out.agreement)
      violations.push_back("disagreement in operation seed " +
                           std::to_string(rec.spec.sim_seed));
    if (first) {
      rec.outcome = std::move(out);
    } else if (const std::string diff = rec.outcome.mismatch(out);
               !diff.empty()) {
      violations.push_back("repeat of operation seed " +
                           std::to_string(rec.spec.sim_seed) +
                           " differs: " + diff);
    }
  };
  // One mandatory pass over the distinct operations, then repeats while
  // the time budget allows; repeats only sharpen the wall-time medians.
  for (std::size_t k = 0; k < ops.size(); ++k) {
    ops[k].spec = op_spec(w, seed, k);
    execute(ops[k], true);
  }
  // Peak memory of the fixed first pass; repeats only add allocator
  // drift.
  const double rss_mb = peak_rss_mb();
  bool more = true;
  while (more) {
    for (OpRecord& rec : ops) {
      if (seconds_since(start) + median(rec.walls) > seconds) {
        more = false;
        break;
      }
      execute(rec, false);
    }
  }

  std::uint64_t requests = 0, decisions = 0, words = 0;
  double wall = 0, measured_wall = 0;
  std::vector<double> p50s, p90s, depths;
  std::vector<std::uint64_t> pooled;
  std::vector<std::string> walls, tick_us;
  std::size_t executions = 0;
  for (const OpRecord& rec : ops) {
    requests += rec.outcome.requests;
    decisions += rec.outcome.decisions;
    words += rec.outcome.correct_words;
    wall += median(rec.quiet_walls);
    measured_wall += median(rec.walls);
    executions += rec.walls.size();
    p50s.push_back(static_cast<double>(rec.outcome.latency_p50));
    p90s.push_back(static_cast<double>(rec.outcome.latency_p90));
    depths.push_back(static_cast<double>(rec.outcome.causal_depth));
    pooled.insert(pooled.end(), rec.outcome.latencies.begin(),
                  rec.outcome.latencies.end());
    std::vector<std::string> op_walls, op_ticks;
    for (double t : rec.walls) op_walls.push_back(json_number(t));
    for (double t : rec.tick_s) op_ticks.push_back(json_number(t * 1e6));
    walls.push_back(json_list(op_walls, false));
    tick_us.push_back(json_list(op_ticks, false));
  }
  double p50 = median(p50s), p90 = median(p90s);
  std::size_t samples = 0;
  if (w.kind == Kind::kBa) {
    // BA reports every process's latency: take the pooled order
    // statistics, the same ones the log driver uses per run.
    std::sort(pooled.begin(), pooled.end());
    samples = pooled.size();
    if (samples) {
      p50 = static_cast<double>(pooled[samples / 2]);
      p90 = static_cast<double>(pooled[samples * 9 / 10]);
    }
  } else {
    samples = w.slots * (w.n - w.silent);  // per operation
  }

  Metrics m = {
      {"commit_rps", {ratio(requests, wall), "1/s"}},
      {"decisions_per_s", {ratio(decisions, wall), "1/s"}},
      {"words_per_request", {ratio(words, requests), "words"}},
      {"words_per_decision", {ratio(words, decisions), "words"}},
      {"decide_latency_p50", {p50, "events"}},
      {"decide_latency_p90", {p90, "events"}},
      {"causal_depth", {mean(depths), "hops"}},
      {"setup_s", {setup.value(), "s"}},
      {"peak_rss_mb", {rss_mb, "MiB"}},
  };
  ctx.add("operations", std::to_string(ops.size()));
  ctx.add("executions", std::to_string(executions));
  ctx.add("setup_cycles", std::to_string(setup.cycles()));
  ctx.add("latency_samples", std::to_string(samples));
  ctx.add("op_walls_s", json_list(walls, false));
  ctx.add("op_tick_us", json_list(tick_us, false));
  ctx.add("setup_tick_us", json_number(setup.sampled().mean_s() * 1e6));
  ctx.add("measured_commit_rps", json_number(ratio(requests, measured_wall)));
  ctx.add("violations", json_list(violations, true));
  ctx.print();
  print_result(violations.empty(), attempted, failed, m);
  return violations.empty() ? 0 : 1;
}

// --- traced run: the per-layer metrics ------------------------------------

int per_layer_run(const Workload& w, std::uint64_t seed, Context ctx) {
  std::vector<std::string> violations;
  std::uint64_t attempted = 0, failed = 0, deliveries = 0, undecided = 0;
  double untraced_wall = 0;  // inside the public driver
  // Whole calls, set-up and teardown included, for the overhead ratio.
  double untraced_call = 0, traced_call = 0;
  TracedRun sum;  // over the traced operations

  // Warm-up on the first operation, so that neither side of the overhead
  // ratio pays the process's first-touch costs. It also counts the
  // allocations, which keeps the counter out of the timed replays.
  double allocs_per_delivery = 0;
  {
    double wall = 0;
    const std::uint64_t before = allocations();
    g_count_allocs = true;
    const Outcome warm = perfbench::run_untraced(w, op_spec(w, seed, 0), wall);
    g_count_allocs = false;
    allocs_per_delivery = ratio(static_cast<double>(allocations() - before),
                                static_cast<double>(warm.deliveries));
  }
  const std::size_t count = std::min(w.traced_ops, w.ops);
  for (std::size_t k = 0; k < count; ++k) {
    const OpSpec op = op_spec(w, seed, k);
    double wall = 0;
    auto t0 = Clock::now();
    const Outcome reference = perfbench::run_untraced(w, op, wall);
    untraced_call += seconds_since(t0);
    untraced_wall += wall;

    t0 = Clock::now();
    const TracedRun run = perfbench::run_traced(w, op);
    traced_call += seconds_since(t0);
    if (const std::string diff = reference.mismatch(run.outcome);
        !diff.empty())
      violations.push_back("traced replay of operation seed " +
                           std::to_string(op.sim_seed) +
                           " diverged: " + diff);
    attempted += run.outcome.attempted;
    failed += run.outcome.failed;
    deliveries += run.outcome.deliveries;
    undecided += run.outcome.undecided;
    sum.add(run);
  }
  violations.insert(violations.end(), sum.violations.begin(),
                    sum.violations.end());
  const MicroCosts micro =
      measure_micro(make_env(w, op_spec(w, seed, 0)), 1.4);

  const Ledger& ledger = sum.ledger;
  // Thread time the engine spent outside handlers: scheduling, routing,
  // and (sharded) waiting at the superstep barrier.
  const double sched_s = sum.wall_s * static_cast<double>(sum.threads) -
                         ledger.handler_total_s;
  const double slots =
      w.kind == Kind::kLog ? static_cast<double>(attempted) : 0.0;
  auto family_s = [&](Family f) {
    return ledger.family_self_s[static_cast<std::size_t>(f)];
  };
  auto family_words = [&](Family f) {
    return static_cast<double>(
        sum.words_by_family[static_cast<std::size_t>(f)]);
  };
  const double d = static_cast<double>(deliveries);
  Metrics m = {
      {"sim.deliveries", {d, "count"}},
      {"sim.deliveries_per_s", {ratio(d, untraced_wall), "1/s"}},
      {"sim.allocs_per_delivery", {allocs_per_delivery, "count"}},
      {"sim.sched_s", {sched_s, "s"}},
      {"sim.supersteps", {static_cast<double>(sum.supersteps), "count"}},
      {"sim.merge_stalls", {static_cast<double>(sum.merge_stalls), "count"}},
      {"sim.handler_parallelism",
       {ratio(ledger.handler_total_s, sum.wall_s), "ratio"}},
      {"ba.rbc_initial_s", {family_s(Family::kRbcInitial), "s"}},
      {"ba.rbc_echo_s", {family_s(Family::kRbcEcho), "s"}},
      {"ba.rbc_ready_s", {family_s(Family::kRbcReady), "s"}},
      {"ba.approver_s", {family_s(Family::kApprover), "s"}},
      {"ba.skip_s", {family_s(Family::kSkip), "s"}},
      {"ba.mv_s", {family_s(Family::kMv), "s"}},
      {"ba.rounds_skipped", {static_cast<double>(sum.rounds_skipped), "count"}},
      {"ba.max_round", {static_cast<double>(sum.max_round), "count"}},
      {"ba.undecided_instances", {static_cast<double>(undecided), "count"}},
      {"ba.candidates_per_slot",
       {ratio(sum.candidates_per_slot, static_cast<double>(count)), "count"}},
      {"words.rbc_initial", {family_words(Family::kRbcInitial), "words"}},
      {"words.rbc_echo", {family_words(Family::kRbcEcho), "words"}},
      {"words.rbc_ready", {family_words(Family::kRbcReady), "words"}},
      {"words.approver", {family_words(Family::kApprover), "words"}},
      {"words.coin", {family_words(Family::kCoin), "words"}},
      {"words.skip", {family_words(Family::kSkip), "words"}},
      {"words.mv", {family_words(Family::kMv), "words"}},
      {"coin.handler_s", {family_s(Family::kCoin), "s"}},
      {"coin.verify_shares", {static_cast<double>(sum.verify_shares), "count"}},
      {"coin.verify_memo_hit_ratio",
       {ratio(sum.verify_memo_hits, sum.verify_shares), "ratio"}},
      {"coin.verify_rejects",
       {static_cast<double>(sum.verify_rejects), "count"}},
      {"committee.sample_calls",
       {static_cast<double>(ledger.sample_calls), "count"}},
      {"committee.val_checks",
       {static_cast<double>(ledger.val_checks), "count"}},
      {"committee.busy_s", {ledger.committee_self_s, "s"}},
      {"committee.vrf_evals_per_sample",
       {ratio(sum.sample_misses, ledger.sample_calls), "ratio"}},
      {"crypto.vrf.evals", {static_cast<double>(ledger.vrf_evals), "count"}},
      {"crypto.vrf.verifies",
       {static_cast<double>(ledger.vrf_verifies), "count"}},
      {"crypto.vrf.batch_entries",
       {static_cast<double>(ledger.vrf_batch_entries), "count"}},
      {"crypto.vrf.busy_s", {ledger.vrf_self_s, "s"}},
      {"crypto.sig.checks", {static_cast<double>(sum.sig_checks), "count"}},
      {"crypto.sig.memo_hit_ratio",
       {ratio(sum.sig_memo_hits, sum.sig_checks), "ratio"}},
      {"crypto.sha256.ns_per_block", {micro.sha256_ns_per_block, "ns"}},
      {"crypto.sig.verify_ns", {micro.sig_verify_ns, "ns"}},
      {"crypto.vrf.verify_us", {micro.vrf_verify_us, "us"}},
      {"crypto.vrf.batch_verify_us_per_entry",
       {micro.vrf_batch_verify_us_per_entry, "us"}},
      {"codec.rs_encodes", {static_cast<double>(sum.rs_encodes), "count"}},
      {"codec.rs_decodes", {static_cast<double>(sum.rs_decodes), "count"}},
      {"codec.decode_failures",
       {static_cast<double>(sum.decode_failures), "count"}},
      {"codec.rs_encode_us", {micro.rs_encode_us, "us"}},
      {"codec.rs_decode_us", {micro.rs_decode_us, "us"}},
      {"codec.merkle_build_us", {micro.merkle_build_us, "us"}},
      {"codec.merkle_verify_us", {micro.merkle_verify_us, "us"}},
      {"session.noop_slot_ratio",
       {ratio(static_cast<double>(sum.noop_slots), slots), "ratio"}},
      {"trace.overhead_ratio", {ratio(traced_call, untraced_call), "ratio"}},
  };
  ctx.add("traced_operations", std::to_string(count));
  ctx.add("untraced_call_s", json_number(untraced_call));
  ctx.add("traced_call_s", json_number(traced_call));
  ctx.add("violations", json_list(violations, true));
  ctx.print();
  print_result(violations.empty(), attempted, failed, m);
  return violations.empty() ? 0 : 1;
}

// --- smoke test -------------------------------------------------------------

int smoke() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << std::endl;
    if (!ok) ++failures;
  };

  for (const Workload& full : workloads()) {
    const Workload w = tiny(full);
    const OpSpec op = op_spec(w, 1, 0);
    double wall = 0;
    const Outcome plain = perfbench::run_untraced(w, op, wall);
    const Outcome again = perfbench::run_untraced(w, op, wall);
    const TracedRun traced = perfbench::run_traced(w, op);
    expect(plain.failed == 0 && plain.agreement,
           w.name + ": tiny operation commits with agreement");
    expect(plain.mismatch(again).empty(),
           w.name + ": a repeat reproduces the outcome " +
               plain.mismatch(again));
    expect(plain.mismatch(traced.outcome).empty(),
           w.name + ": the shims forward every call unchanged (fingerprint " +
               plain.fingerprint + ", " + std::to_string(plain.correct_words) +
               " words) " + plain.mismatch(traced.outcome));
    expect(traced.violations.empty(),
           w.name + ": traced run passes its ledger and validity checks" +
               (traced.violations.empty() ? "" : ": " + traced.violations[0]));
    expect(traced.ledger.handler_calls > 0 &&
               (w.kind == Kind::kBa || traced.ledger.sample_calls > 0),
           w.name + ": the decorators saw traffic");
  }

  // Forced log-level violations must be caught by the validity checker.
  {
    const Bytes a = bytes_of("c0-0:aa\nc0-1:bb");
    const Bytes b = bytes_of("c1-0:cc\nc1-1:dd");
    const std::vector<std::vector<Bytes>> proposals = {{a, b}, {a, b}};
    expect(check_logs({{a, Bytes{}}, {a, Bytes{}}}, proposals).empty(),
           "check_logs accepts identical valid logs with a no-op slot");
    expect(!check_logs({{a, Bytes{}}, {b, Bytes{}}}, proposals).empty(),
           "check_logs catches a forced disagreement");
    expect(!check_logs({{a, a}}, proposals).empty(),
           "check_logs catches a request committed twice");
    expect(!check_logs({{bytes_of("c9-0:ee")}}, proposals).empty(),
           "check_logs catches an invented batch");
  }

  // Undecided BA instances: a wedge is retried and charged to its
  // operation; an operation whose every instance wedges counts as failed,
  // never as a disagreement.
  {
    Workload w = tiny(*find_workload("ba_whp_n512"));
    w.d = 0.1;  // W close to the whole committee: most instances wedge
    bool retried = false, failed = false;
    for (std::size_t k = 0; k < 32 && !(retried && failed); ++k) {
      double wall = 0;
      const Outcome out = perfbench::run_untraced(w, op_spec(w, 1, k), wall);
      const bool sane = out.agreement && out.instances >= 1 &&
                        out.undecided + out.decisions == out.instances;
      retried = retried || (sane && out.decisions == 1 && out.undecided > 0);
      failed = failed || (sane && out.failed == 1 &&
                          out.undecided == kMaxBaAttempts);
    }
    expect(retried, "a wedged BA instance is retried within its operation");
    expect(failed, "an operation whose every instance wedges counts as failed");
  }

  std::cout << (failures ? "smoke test FAILED" : "smoke test passed")
            << std::endl;
  return failures ? 1 : 0;
}

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <sha>]\n       perfbench --smoke\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      args["smoke"] = "1";
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    if (args.count("smoke")) return smoke();
    if (!args.count("workload") || !args.count("seed") ||
        !args.count("seconds") || !args.count("trace"))
      return usage();
    const Workload* w = find_workload(args["workload"]);
    if (!w) {
      std::cerr << "unknown workload " << args["workload"] << "\n";
      return 2;
    }
    const std::uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    const bool trace = args["trace"] == "1";
    Context ctx = machine_context(
        *w, seed, trace, args.count("commit") ? args["commit"] : "unknown");
    return trace ? per_layer_run(*w, seed, ctx)
                 : end_to_end_run(*w, seed, seconds, ctx);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
