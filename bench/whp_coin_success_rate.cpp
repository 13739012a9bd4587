// E2 — Lemma B.7 / Theorem 5.4: the committee (WHP) coin.
//
// Sweeps the committee margin d and the system size n for Algorithm 2,
// measuring liveness (all correct processes return — S3 territory) and
// agreement (same output bit), next to the paper's analytic rate
//   2 · (18d² + 27d − 1) / (3(5+6d)(1−d)(1+9d)).
// At small n the bound is weak/negative — visible in the table — while
// the empirical rates are already high: the asymptotic analysis is
// conservative, not wrong.
#include <iostream>

#include "committee/params.h"
#include "common/args.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/coin_runner.h"

using namespace coincidence;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const int runs = static_cast<int>(args.get_int("runs", 120));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 6));
  ThreadPool pool(static_cast<std::size_t>(args.get_int("threads", 0)));

  std::cout << "== E2: WHP coin (Algorithm 2), " << runs
            << " flips per row, " << pool.size() << " threads ==\n\n";

  Table t({"n", "d", "W", "silent f", "returned", "agree|returned",
           "95% CI", "paper bound(x2)"});

  struct Row {
    std::size_t n;
    double d;
    std::size_t silent;  // Byzantine committee members (silent)
  };
  const Row rows[] = {{64, 0.01, 0},  {64, 0.04, 0},  {64, 0.08, 0},
                      {128, 0.01, 0}, {128, 0.04, 0}, {128, 0.08, 0},
                      {256, 0.04, 0}, {256, 0.08, 0},
                      // full Byzantine load f = (1/3 - 0.25) n, silent:
                      {128, 0.01, 10}, {256, 0.04, 21}};

  for (const Row& row : rows) {
    committee::Params params =
        committee::Params::derive(row.n, 0.25, row.d, /*strict=*/false);
    std::vector<core::CoinOptions> flips(static_cast<std::size_t>(runs));
    for (int run = 0; run < runs; ++run) {
      core::CoinOptions& o = flips[static_cast<std::size_t>(run)];
      o.kind = core::CoinKind::kWhp;
      o.n = row.n;
      o.d = row.d;
      o.seed = seed * 999983 + 131 * run + row.n;
      o.round = static_cast<std::uint64_t>(run);
      o.silent = row.silent;
    }
    std::vector<core::CoinReport> reports = parallel_map(
        pool, flips.size(),
        [&](std::size_t i) { return core::run_coin_trial(flips[i]); });
    std::size_t returned = 0, agree = 0;
    for (const core::CoinReport& r : reports) {
      if (!r.all_returned) continue;
      ++returned;
      if (r.agreed_bit) ++agree;
    }
    double agree_rate =
        returned ? static_cast<double>(agree) / returned : 0.0;
    Interval ci = wilson_interval(agree, returned);
    double bound = 2.0 * committee::whp_coin_success_lower_bound(row.d);
    t.add_row({std::to_string(row.n), Table::num(row.d, 2),
               std::to_string(params.W), std::to_string(row.silent),
               Table::num(static_cast<double>(returned) / runs, 3),
               Table::num(agree_rate, 3),
               "[" + Table::num(ci.lo, 3) + "," + Table::num(ci.hi, 3) + "]",
               Table::num(bound, 3)});
  }

  t.print(std::cout);
  std::cout << "\npaper-shape checks: agreement beats the (often vacuous "
               "at these n) analytic bound\neverywhere; raising d raises W, "
               "visibly trading liveness margin (S3, 'returned') for\n"
               "intersection margin (S5/S6). At fixed d the S3 failure "
               "decays like n^-c3 with a small\nc3 — the whp guarantee is "
               "asymptotic, which is why small d dominates at these n.\n";
  return 0;
}
