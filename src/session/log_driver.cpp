#include "session/log_driver.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/errors.h"
#include "sim/simulation.h"

namespace coincidence::session {

LogReport run_replicated_log(const core::Env& env,
                             const LogRunOptions& opts) {
  const std::size_t n = env.n();
  COIN_REQUIRE(opts.silent_faults <= env.f(),
               "run_replicated_log: faults exceed f");
  env.params.require_reachable_quorum(opts.silent_faults);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = opts.silent_faults;
  cfg.seed = opts.sim_seed;
  cfg.shards = opts.shards;
  cfg.threads = opts.threads;
  sim::Simulation sim(cfg);

  LogConfig lcfg{env};
  lcfg.total_slots = opts.slots;
  lcfg.pipeline_depth = opts.pipeline_depth;
  lcfg.batch_size = opts.batch_size;
  lcfg.max_rounds = opts.max_rounds;
  lcfg.max_candidates = opts.max_candidates;
  lcfg.client_seed = opts.client_seed;
  lcfg.rbc = opts.rbc;
  lcfg.skip_timeout = auto_skip_timeout(n, opts.pipeline_depth);

  for (std::size_t i = 0; i < n; ++i)
    sim.add_process(std::make_unique<LogProcess>(lcfg));
  sim::ProcessId next = static_cast<sim::ProcessId>(n);
  for (std::size_t i = 0; i < opts.silent_faults; ++i)
    sim.corrupt(--next, sim::FaultPlan::silent());

  auto log_of = [&](sim::ProcessId i) -> LogProcess& {
    return dynamic_cast<LogProcess&>(sim.process(i));
  };

  sim.start();
  sim.run_until([&] {
    for (sim::ProcessId i = 0; i < n; ++i) {
      if (sim.is_corrupted(i)) continue;
      if (!log_of(i).all_committed()) return false;
    }
    return true;
  });

  LogReport report;
  report.slots = opts.slots;
  report.all_committed = true;
  std::vector<std::uint64_t> latencies;
  bool have_first = false;
  crypto::Digest first_fp{};
  for (sim::ProcessId i = 0; i < n; ++i) {
    if (sim.is_corrupted(i)) continue;
    LogProcess& log = log_of(i);
    if (!log.all_committed()) {
      report.all_committed = false;
      continue;
    }
    const crypto::Digest fp = log.log_fingerprint();
    if (!have_first) {
      have_first = true;
      first_fp = fp;
      report.fingerprint = to_hex(fp);
      report.requests_committed = log.requests_committed();
      for (std::size_t s = 0; s < opts.slots; ++s)
        if (log.committed(s).empty()) ++report.noop_slots;
    } else if (fp != first_fp) {
      report.agreement = false;
    }
    for (std::size_t s = 0; s < opts.slots; ++s)
      latencies.push_back(log.decide_latency(s));
    report.rounds_skipped += log.rounds_skipped();
    report.max_decided_round =
        std::max(report.max_decided_round, log.max_decided_round());
  }

  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    report.decide_latency_p50 = latencies[latencies.size() / 2];
    report.decide_latency_p90 = latencies[latencies.size() * 9 / 10];
    report.decide_latency_max = latencies.back();
  }
  report.deliveries = sim.deliveries();
  report.correct_words = sim.metrics().correct_words();
  report.messages = sim.metrics().messages_sent();
  for (sim::ProcessId i = 0; i < n; ++i)
    report.duration = std::max(report.duration, sim.depth_of(i));
  report.words_per_slot =
      opts.slots ? report.correct_words / opts.slots : 0;
  if (report.deliveries > 0)
    report.requests_per_100k_deliveries =
        static_cast<double>(report.requests_committed) * 100000.0 /
        static_cast<double>(report.deliveries);
  return report;
}

}  // namespace coincidence::session
