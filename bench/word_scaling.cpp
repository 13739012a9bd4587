// E4 — the headline claim: Õ(n) vs O(n²) word complexity.
//
// Measures words-to-decision for our BA WHP and for MMR + Algorithm-1
// coin (the O(n²) operating point of §4) across n, fits the log-log
// growth exponents, and — because the paper's Õ(n) hides an 8²·ln²n
// committee constant that dwarfs n² at simulable sizes — *projects* the
// crossover point from the fitted models:
//   ours  ≈ a · n ln²n      (measured a)
//   mmr   ≈ b · n²          (measured b)
//   crossover at a·ln²n = b·n.
// Per-coin-instance words (no approver, no ok proofs) cross much earlier
// and are printed too: the WHP coin beats the full coin within reach.
#include <cmath>
#include <iostream>

#include "bench_json.h"
#include "common/args.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/coin_runner.h"
#include "core/runner.h"

using namespace coincidence;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 8));
  // E15 (ISSUE 8): `--max_n` extends the coin grid through {512, 1024,
  // 2048, 4096}; runs there take 1 trial each (the committee machinery
  // is deterministic enough that one flip pins the word count to a few
  // percent) and should be paired with `--shards` so the superstep
  // engine carries the n^2-delivery shared-coin rows.
  const std::size_t max_n =
      static_cast<std::size_t>(args.get_int("max_n", 384));
  const std::size_t shards =
      static_cast<std::size_t>(args.get_int("shards", 0));
  const std::string json_path = args.get("bench_json", "");
  ThreadPool pool(static_cast<std::size_t>(args.get_int("threads", 0)));

  bench::BenchJson json;
  json.context("bench", "word_scaling");
  json.context("trials", static_cast<double>(trials));
  json.context("seed", static_cast<double>(seed));
  json.context("max_n", static_cast<double>(max_n));
  json.context("shards", static_cast<double>(shards));

  std::cout << "== E4: word-complexity scaling, ours vs O(n^2) (trials="
            << trials << ", threads=" << pool.size();
  if (shards > 0) std::cout << ", shards=" << shards;
  std::cout << ") ==\n\n";

  // --- part 1: the coins alone (Algorithm 1 vs Algorithm 2) -------------
  Table tc({"n", "shared-coin words", "whp-coin words", "ratio"});
  std::vector<double> cxs, shared_ys, whp_ys;
  std::vector<std::size_t> coin_ns = {48, 96, 160, 256, 384};
  for (std::size_t n : {512, 1024, 2048, 4096})
    if (n <= max_n) coin_ns.push_back(n);
  for (std::size_t n : coin_ns) {
    const int tn = n >= 512 ? 1 : trials;
    // The whp coin fails (by design) a few percent of the time; at the
    // single-trial large-n rows a failed flip would drop the row, so run
    // a few speculative retry seeds and consume the first tn successes.
    // The default grid keeps exactly the historical trial set.
    const int whp_attempts = tn + (n >= 512 ? 4 : 0);
    // Indices [0, tn) are shared-coin flips, [tn, tn + whp_attempts) are
    // whp — one flat fan-out per n, folded in input order so tallies
    // match the serial loop.
    std::vector<core::CoinOptions> flips(
        static_cast<std::size_t>(tn + whp_attempts));
    for (int trial = 0; trial < whp_attempts; ++trial) {
      core::CoinOptions o;
      o.n = n;
      o.seed = seed + 31 * trial + n;
      o.round = static_cast<std::uint64_t>(trial);
      o.shards = shards;
      if (trial < tn) {
        o.kind = core::CoinKind::kShared;
        flips[static_cast<std::size_t>(trial)] = o;
      }
      o.kind = core::CoinKind::kWhp;
      flips[static_cast<std::size_t>(tn + trial)] = o;
    }
    std::vector<core::CoinReport> reports = parallel_map(
        pool, flips.size(),
        [&](std::size_t i) { return core::run_coin_trial(flips[i]); });
    double shared_words = 0, whp_words = 0;
    int shared_c = 0, whp_c = 0;
    for (int trial = 0; trial < tn; ++trial) {
      const core::CoinReport& rs = reports[static_cast<std::size_t>(trial)];
      if (rs.all_returned) {
        shared_words += static_cast<double>(rs.correct_words);
        ++shared_c;
      }
    }
    for (int trial = 0; trial < whp_attempts && whp_c < tn; ++trial) {
      const core::CoinReport& rw =
          reports[static_cast<std::size_t>(tn + trial)];
      if (rw.all_returned) {
        whp_words += static_cast<double>(rw.correct_words);
        ++whp_c;
      }
    }
    if (shared_c == 0 || whp_c == 0) continue;
    shared_words /= shared_c;
    whp_words /= whp_c;
    cxs.push_back(static_cast<double>(n));
    shared_ys.push_back(shared_words);
    whp_ys.push_back(whp_words);
    bench::BenchJson::Row& row = json.row("coin/n" + std::to_string(n));
    bench::BenchJson::field(row, "n", static_cast<double>(n));
    bench::BenchJson::field(row, "shared_words", shared_words);
    bench::BenchJson::field(row, "whp_words", whp_words);
    bench::BenchJson::field(row, "trials", static_cast<double>(tn));
    tc.add_row({std::to_string(n),
                Table::count(static_cast<unsigned long long>(shared_words)),
                Table::count(static_cast<unsigned long long>(whp_words)),
                Table::num(shared_words / whp_words, 2)});
  }
  tc.print(std::cout);
  const double shared_slope = loglog_slope(cxs, shared_ys);
  const double whp_slope = loglog_slope(cxs, whp_ys);
  json.context("shared_slope", shared_slope);
  json.context("whp_slope", whp_slope);
  std::cout << "coin word-growth exponents: shared="
            << Table::num(shared_slope, 2)
            << " (theory 2), whp=" << Table::num(whp_slope, 2)
            << " (theory ~1 + log factor)\n\n";

  // --- part 2: full BA, ours vs MMR+Algorithm-1 -------------------------
  Table tb({"n", "ba-whp words", "mmr-vrf words", "ba-whp/n*ln^2(n)",
            "mmr/n^2"});
  std::vector<double> xs, ours_ys, mmr_ys;
  std::vector<std::size_t> ba_ns = {48, 64, 96, 128, 192, 256};
  if (args.get_bool("big", false)) ba_ns.push_back(512);
  for (std::size_t n : ba_ns) {
    double ours = 0, mmr = 0;
    int ours_c = 0, mmr_c = 0;
    // The whp-failure tail bites harder at one-shot large-n runs; retry a
    // few extra seeds there so the row reflects successful decisions.
    int attempts = n >= 512 ? trials + 4 : trials;
    int wanted = trials;
    // Speculatively run every attempt for both protocols in parallel,
    // then replay the serial retry-gating over the reports in trial
    // order: the tallies consume exactly the runs the serial loop would
    // have executed (the spare speculative runs are simply discarded).
    std::vector<core::RunOptions> opts(2 * static_cast<std::size_t>(attempts));
    for (int trial = 0; trial < attempts; ++trial) {
      core::RunOptions o;
      o.n = n;
      o.seed = seed + 7 * trial + n;
      o.shards = shards;
      o.inputs.assign(n, ba::kZero);
      for (std::size_t i = 0; i < n / 2; ++i) o.inputs[i] = ba::kOne;
      o.protocol = core::Protocol::kBaWhp;
      opts[2 * static_cast<std::size_t>(trial)] = o;
      o.protocol = core::Protocol::kMmrSharedCoin;
      opts[2 * static_cast<std::size_t>(trial) + 1] = o;
    }
    std::vector<core::RunReport> reports =
        core::run_agreements_parallel(pool, opts);
    for (int trial = 0; trial < attempts && (ours_c < wanted || mmr_c < wanted);
         ++trial) {
      if (ours_c < wanted) {
        const core::RunReport& r1 = reports[2 * static_cast<std::size_t>(trial)];
        if (r1.all_correct_decided) {
          ours += static_cast<double>(r1.correct_words);
          ++ours_c;
        }
      }
      if (mmr_c < wanted) {
        const core::RunReport& r2 =
            reports[2 * static_cast<std::size_t>(trial) + 1];
        if (r2.all_correct_decided) {
          mmr += static_cast<double>(r2.correct_words);
          ++mmr_c;
        }
      }
    }
    if (ours_c == 0 || mmr_c == 0) continue;
    ours /= ours_c;
    mmr /= mmr_c;
    xs.push_back(static_cast<double>(n));
    ours_ys.push_back(ours);
    mmr_ys.push_back(mmr);
    double ln2 = std::log(static_cast<double>(n)) * std::log(static_cast<double>(n));
    double a = ours / (static_cast<double>(n) * ln2);
    double b = mmr / (static_cast<double>(n) * static_cast<double>(n));
    tb.add_row({std::to_string(n),
                Table::count(static_cast<unsigned long long>(ours)),
                Table::count(static_cast<unsigned long long>(mmr)),
                Table::num(a, 1), Table::num(b, 1)});
  }
  tb.print(std::cout);

  if (xs.size() >= 2) {
    std::cout << "\nfull-BA word-growth exponents: ba-whp="
              << Table::num(loglog_slope(xs, ours_ys), 2)
              << " (theory ~1+), mmr=" << Table::num(loglog_slope(xs, mmr_ys), 2)
              << " (theory 2)\n";
    // Fit the model constants by least squares through the origin over
    // ALL measured points (robust to per-row round-count noise):
    //   ours = a * n ln^2 n,  mmr = b * n^2.
    double a_num = 0, a_den = 0, b_num = 0, b_den = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      double ln2 = std::log(xs[i]) * std::log(xs[i]);
      double xa = xs[i] * ln2;
      double xb = xs[i] * xs[i];
      a_num += xa * ours_ys[i];
      a_den += xa * xa;
      b_num += xb * mmr_ys[i];
      b_den += xb * xb;
    }
    double a_fit = a_den > 0 ? a_num / a_den : 0;
    double b_fit = b_den > 0 ? b_num / b_den : 0;
    // crossover: a n ln^2 n = b n^2  =>  n / ln^2 n = a / b.
    if (b_fit > 0) {
      double target = a_fit / b_fit;
      double n_cross = 16;
      for (int iter = 0; iter < 64; ++iter) {
        double ln = std::log(n_cross);
        n_cross = target * ln * ln;
      }
      std::cout << "projected crossover (a*n*ln^2 n = b*n^2): n ~ "
                << Table::count(static_cast<unsigned long long>(n_cross))
                << " — the paper's win is asymptotic; at simulable n the "
                   "lambda^2 ok-proof constant dominates.\n";
    }
  }

  if (!json_path.empty()) {
    if (!json.write(json_path)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
