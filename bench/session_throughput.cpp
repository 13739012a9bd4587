// E9 — multi-instance amortization (§3: "setup has to occur once and may
// be used for any number of BA instances").
//
// Runs K agreement slots *concurrently* over one network and one trusted
// setup (core::Session) and reports per-slot words and decision quality
// as K grows. Expected shape: per-slot cost flat in K (instances are
// independent — committees are re-sampled per slot from the same keys),
// so total cost is linear in K with zero marginal setup.
#include <algorithm>
#include <iterator>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ba/broadcast.h"
#include "bench_json.h"
#include "common/args.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/session.h"
#include "session/log_driver.h"

using namespace coincidence;

namespace {

/// Row-name suffixless backend label: Bracha rows keep the historical
/// "log/N" names (the CI gate's frozen vocabulary); EC rows add "-ec".
std::string log_row_name(ba::RbcBackend backend, std::size_t slots) {
  return std::string(backend == ba::RbcBackend::kEc ? "log-ec/" : "log/") +
         std::to_string(slots);
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("n", 48));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 15));
  const std::string json_path = args.get("json", "");
  // --rbc bracha|ec restricts the multivalued sections to one
  // dissemination backend; the default measures both.
  std::vector<ba::RbcBackend> backends = {ba::RbcBackend::kBracha,
                                          ba::RbcBackend::kEc};
  if (const std::string rbc = args.get("rbc", ""); !rbc.empty()) {
    auto parsed = ba::parse_rbc_backend(rbc);
    if (!parsed) {
      std::cerr << "unknown --rbc backend: " << rbc << "\n";
      return 2;
    }
    backends = {*parsed};
  }
  bench::BenchJson json;
  json.context("bench", "session_throughput");
  json.context("n", static_cast<double>(n));
  json.context("seed", static_cast<double>(seed));
  json.machine_context();

  std::cout << "== E9: concurrent multi-slot sessions over one setup, n="
            << n << " ==\n\n";

  Table t({"slots", "decided", "agreed", "total words",
           "words/decided slot", "rounds max", "rounds skipped",
           "causal duration"});

  for (std::size_t slots : {1, 2, 4, 8, 16}) {
    // The Session arms the round-skip liveness fallback (ba_whp.h): at
    // seed 15 the 8- and 16-slot runs draw one committee below W live
    // members and historically wedged a slot forever (BENCH_session.json
    // recorded 7/8 and 14/16 decided with rounds_max 0.0 — the dead
    // telemetry).
    core::Session session(core::Env::make_relaxed(n, seed));
    std::vector<std::vector<ba::Value>> inputs(slots,
                                               std::vector<ba::Value>(n, 0));
    // Alternate unanimity and splits across slots.
    for (std::size_t s = 0; s < slots; ++s)
      for (std::size_t i = 0; i < n; ++i)
        inputs[s][i] = static_cast<ba::Value>((s % 2) ? (i % 2) : (s % 3 == 0));

    core::SessionReport r =
        session.run_concurrent_slots(inputs, seed + slots, /*silent=*/2);

    std::size_t decided = 0, agreed = 0;
    std::uint64_t rounds_max = 0, rounds_skipped = 0;
    std::uint64_t decided_words = 0, stalled_words = 0;
    for (const auto& slot : r.slots) {
      decided += slot.all_correct_decided;
      agreed += slot.agreement;
      // max_round_reached is honest for stalled slots too; the old
      // max_decided_round-only report showed 0.0 even while a slot sat
      // wedged in round 0.
      rounds_max = std::max(rounds_max, slot.max_round_reached);
      rounds_skipped += slot.rounds_skipped;
      (slot.all_correct_decided ? decided_words : stalled_words) +=
          slot.correct_words;
    }
    bench::BenchJson::Row& row =
        json.row("slots/" + std::to_string(slots));
    bench::BenchJson::field(row, "slots", static_cast<double>(slots));
    bench::BenchJson::field(row, "decided", static_cast<double>(decided));
    bench::BenchJson::field(row, "agreed", static_cast<double>(agreed));
    bench::BenchJson::field(row, "total_words",
                            static_cast<double>(r.correct_words));
    bench::BenchJson::field(
        row, "words_per_decided_slot",
        static_cast<double>(decided ? decided_words / decided : 0));
    bench::BenchJson::field(row, "rounds_max",
                            static_cast<double>(rounds_max));
    bench::BenchJson::field(row, "rounds_skipped",
                            static_cast<double>(rounds_skipped));
    bench::BenchJson::field(row, "causal_duration",
                            static_cast<double>(r.duration));
    t.add_row({std::to_string(slots),
               std::to_string(decided) + "/" + std::to_string(slots),
               std::to_string(agreed) + "/" + std::to_string(slots),
               Table::count(r.correct_words),
               Table::count(decided ? decided_words / decided : 0),
               std::to_string(rounds_max), std::to_string(rounds_skipped),
               std::to_string(r.duration)});
  }

  t.print(std::cout);
  std::cout << "\npaper-shape checks: one PKI serves every slot (no per-"
               "instance setup), and slots neither\nshare nor contend "
               "(fresh committees per slot from the same keys). Slots that "
               "draw a\ncommittee below W live members no longer wedge: "
               "the skip fallback re-draws committees\nin round >= 1 "
               "(rounds max / rounds skipped above), so every slot "
               "decides. Decided slots\npay their full post-decision "
               "grace window; that is the cost of the grace rounds, not\n"
               "of concurrency.\n";

  // --- E16: multivalued replicated log (src/session). ------------------
  // Pipelined MvBa slots batching simulated client requests, run once
  // per dissemination backend (ba/broadcast.h). Under Bracha each slot
  // pays K = min(f + 1, max_candidates) RBCs (4 at n = 48), each echoed
  // to all n by its 3f + 1 echo set, so words/slot is
  // dissemination-dominated; the erasure-coded backend ships ⌈|v|/k⌉-word
  // fragments plus λ·log(3f + 1) Merkle branches instead, which is where
  // the O(f·n·|v|) → O(n·|v| + f·n·λ) headline comes from. The 64-request
  // default batch (~2KB proposals) sits past the coded path's break-even
  // (see E17 below for the sweep).
  const auto log_slots_max =
      static_cast<std::size_t>(args.get_int("log-slots", 8));
  const auto log_batch =
      static_cast<std::size_t>(args.get_int("log-batch", 64));
  std::cout << "\n== E16: replicated log over pipelined multivalued slots, "
               "n=" << n << " depth=4 batch=" << log_batch
            << " silent=2 ==\n\n";
  Table lt({"rbc", "slots", "committed", "agreed", "requests",
            "req/100k deliv", "decide p50", "decide p90", "words/slot",
            "rbc words/slot", "rounds skipped"});
  for (std::size_t slots = 4; slots <= log_slots_max; slots *= 2) {
    for (ba::RbcBackend backend : backends) {
      core::Env env = core::Env::make_relaxed(n, seed);
      session::LogRunOptions lopts;
      lopts.slots = slots;
      lopts.pipeline_depth = 4;
      lopts.batch_size = log_batch;
      lopts.silent_faults = 2;
      lopts.sim_seed = seed + slots;
      lopts.rbc = backend;
      session::LogReport lr = session::run_replicated_log(env, lopts);
      bench::BenchJson::Row& row = json.row(log_row_name(backend, slots));
      bench::BenchJson::field(row, "slots", static_cast<double>(slots));
      bench::BenchJson::field(row, "all_committed",
                              lr.all_committed ? 1.0 : 0.0);
      bench::BenchJson::field(row, "agreement", lr.agreement ? 1.0 : 0.0);
      bench::BenchJson::field(row, "requests_committed",
                              static_cast<double>(lr.requests_committed));
      bench::BenchJson::field(row, "requests_per_100k_deliveries",
                              lr.requests_per_100k_deliveries);
      bench::BenchJson::field(row, "decide_latency_p50",
                              static_cast<double>(lr.decide_latency_p50));
      bench::BenchJson::field(row, "decide_latency_p90",
                              static_cast<double>(lr.decide_latency_p90));
      bench::BenchJson::field(row, "decide_latency_max",
                              static_cast<double>(lr.decide_latency_max));
      bench::BenchJson::field(row, "words_per_slot",
                              static_cast<double>(lr.words_per_slot));
      bench::BenchJson::field(row, "rbc_words_per_slot",
                              static_cast<double>(lr.rbc_words / slots));
      bench::BenchJson::field(row, "rounds_skipped",
                              static_cast<double>(lr.rounds_skipped));
      lt.add_row({ba::to_string(backend), std::to_string(slots),
                  lr.all_committed ? "yes" : "NO",
                  lr.agreement ? "yes" : "NO",
                  std::to_string(lr.requests_committed),
                  std::to_string(lr.requests_per_100k_deliveries).substr(0, 5),
                  Table::count(lr.decide_latency_p50),
                  Table::count(lr.decide_latency_p90),
                  Table::count(lr.words_per_slot),
                  Table::count(lr.rbc_words / slots),
                  std::to_string(lr.rounds_skipped)});
    }
  }
  lt.print(std::cout);
  std::cout << "\nE16 words/slot: the coded backend wins only past its "
               "break-even payload size\n(per-echo Merkle branches cost "
               "λ·log2(3f+1) words regardless of |v|); the E17 sweep\nbelow "
               "shows the crossover explicitly.\n";

  // --- E17: bracha-vs-ec words/slot over n and |v|. ---------------------
  // Two pipelined slots per cell, batch sizes {4, 16, 64} (~120B/~500B/
  // ~2KB proposals). The honest finding this sweep exists to keep
  // honest: below ~230-byte proposals at n=48 the EC branch overhead
  // exceeds the fragment saving and Bracha is cheaper — coding pays off
  // k-fold only once fragments dominate branches.
  std::cout << "\n== E17: dissemination backends across n and proposal "
               "size, slots=2 depth=2 silent=min(2,f) ==\n\n";
  Table et({"n", "batch", "rbc", "committed", "agreed", "words/slot"});
  for (std::size_t en : {24, 48}) {
    for (std::size_t batch : {4, 16, 64}) {
      std::uint64_t words_by_backend[2] = {0, 0};
      for (ba::RbcBackend backend : backends) {
        core::Env env = core::Env::make_relaxed(en, seed);
        session::LogRunOptions lopts;
        lopts.slots = 2;
        lopts.pipeline_depth = 2;
        lopts.batch_size = batch;
        // Small-n relaxed params tolerate fewer silent processes.
        lopts.silent_faults = std::min<std::size_t>(2, env.f());
        lopts.sim_seed = seed + batch;
        lopts.rbc = backend;
        session::LogReport lr = session::run_replicated_log(env, lopts);
        words_by_backend[backend == ba::RbcBackend::kEc] =
            lr.words_per_slot;
        bench::BenchJson::Row& row = json.row(
            "e17/n" + std::to_string(en) + "/b" + std::to_string(batch) +
            "/" + ba::to_string(backend));
        bench::BenchJson::field(row, "n", static_cast<double>(en));
        bench::BenchJson::field(row, "batch", static_cast<double>(batch));
        bench::BenchJson::field(row, "all_committed",
                                lr.all_committed ? 1.0 : 0.0);
        bench::BenchJson::field(row, "agreement", lr.agreement ? 1.0 : 0.0);
        bench::BenchJson::field(row, "words_per_slot",
                                static_cast<double>(lr.words_per_slot));
        et.add_row({std::to_string(en), std::to_string(batch),
                    ba::to_string(backend),
                    lr.all_committed ? "yes" : "NO",
                    lr.agreement ? "yes" : "NO",
                    Table::count(lr.words_per_slot)});
      }
      if (backends.size() == 2 && words_by_backend[1] > 0) {
        bench::BenchJson::Row& row = json.row(
            "e17/n" + std::to_string(en) + "/b" + std::to_string(batch) +
            "/ratio");
        bench::BenchJson::field(
            row, "bracha_over_ec",
            static_cast<double>(words_by_backend[0]) /
                static_cast<double>(words_by_backend[1]));
      }
    }
  }
  et.print(std::cout);

  // --- E18: the log probe, words/slot against n. -------------------------
  // Two pipelined slots of 64-request batches with two silent processes,
  // Bracha, seeds 1-2, at each n: a slot's K = min(f + 1, 8) broadcasts
  // are each echoed to all n by a 3f + 1 echo set, so words/slot grows as
  // K·(3f + 1)·n and the fitted slope reads above 2 while K and f still
  // grow together. Candidates/slot is 1
  // when every slot adopts its first-ranked proposer. The cap binds from
  // n = 97 on (f = 7 at n = 96, so K = 8 either way), so n = 128 also
  // runs uncapped (K = f + 1 = 11, row "e18/n128/uncapped", left out of
  // the fit) to price it.
  std::cout << "\n== E18: log probe, slots=2 depth=2 batch=64 silent=2 "
               "bracha, seeds 1-2 ==\n\n";
  Table pt({"n", "cap", "words/slot", "deliveries/slot", "candidates/slot",
            "no-op slots"});
  const std::vector<std::pair<std::size_t, std::size_t>> probes = {
      {32, 8}, {48, 8}, {64, 8}, {96, 8}, {128, 8}, {128, 0}};
  std::vector<double> probe_xs, probe_ys;
  for (const auto& [pn, cap] : probes) {
    constexpr std::size_t kSlots = 2;
    constexpr std::uint64_t kSeeds[] = {1, 2};
    double words = 0, deliveries = 0, candidates = 0;
    std::size_t noops = 0;
    for (std::uint64_t ps : kSeeds) {
      session::LogRunOptions lopts;
      lopts.slots = kSlots;
      lopts.pipeline_depth = kSlots;
      lopts.batch_size = 64;
      lopts.silent_faults = 2;
      lopts.sim_seed = ps;
      lopts.max_candidates = cap;
      const session::LogReport lr =
          session::run_replicated_log(core::Env::make_relaxed(pn, ps), lopts);
      if (!lr.all_committed || !lr.agreement)
        std::cerr << "E18: n=" << pn << " cap=" << cap << " seed=" << ps
                  << " did not commit and agree\n";
      words += static_cast<double>(lr.words_per_slot);
      deliveries += static_cast<double>(lr.deliveries) / kSlots;
      candidates += lr.candidates_per_slot;
      noops += lr.noop_slots;
    }
    const double runs = static_cast<double>(std::size(kSeeds));
    words /= runs;
    deliveries /= runs;
    candidates /= runs;
    std::string name = "e18/n" + std::to_string(pn);
    if (cap == 0) {
      name += "/uncapped";
    } else {
      probe_xs.push_back(static_cast<double>(pn));
      probe_ys.push_back(words);
    }
    bench::BenchJson::Row& row = json.row(name);
    bench::BenchJson::field(row, "n", static_cast<double>(pn));
    bench::BenchJson::field(row, "words_per_slot", words);
    bench::BenchJson::field(row, "deliveries_per_slot", deliveries);
    bench::BenchJson::field(row, "candidates_per_slot", candidates);
    bench::BenchJson::field(row, "noop_slots", static_cast<double>(noops));
    pt.add_row({std::to_string(pn), cap == 0 ? "none" : std::to_string(cap),
                Table::count(static_cast<std::uint64_t>(words)),
                Table::count(static_cast<std::uint64_t>(deliveries)),
                Table::num(candidates, 2), std::to_string(noops)});
  }
  pt.print(std::cout);
  const double probe_slope = loglog_slope(probe_xs, probe_ys);
  bench::BenchJson::field(json.row("e18/slope"), "words_per_slot_slope",
                          probe_slope);
  std::cout << "\nfitted words/slot slope over n = 32-128: "
            << Table::num(probe_slope, 2) << "\n";

  if (!json_path.empty()) {
    if (!json.write(json_path)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
