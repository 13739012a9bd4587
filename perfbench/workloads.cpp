#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "ba/ba_whp.h"
#include "coin/verify_queue.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "core/runner.h"
#include "session/log_driver.h"
#include "session/replicated_log.h"
#include "sim/adversary.h"
#include "sim/metrics.h"
#include "sim/observer.h"
#include "sim/simulation.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// run_agreement derives its Env seed from the run seed this way.
constexpr std::uint64_t kEnvSeedMix = 0x9e3779b97f4a7c15ULL;

void set_percentiles(Outcome& out, std::vector<std::uint64_t> samples) {
  if (samples.empty()) return;
  // Same order statistics as session::run_replicated_log.
  std::sort(samples.begin(), samples.end());
  out.latency_p50 = samples[samples.size() / 2];
  out.latency_p90 = samples[samples.size() * 9 / 10];
}

session::LogRunOptions log_options(const Workload& w, const OpSpec& op) {
  session::LogRunOptions o;
  o.slots = w.slots;
  o.batch_size = w.batch;
  o.silent_faults = w.silent;
  o.sim_seed = op.sim_seed;
  o.client_seed = op.client_seed;
  o.rbc = w.rbc;
  return o;
}

core::RunOptions ba_options(const Workload& w, const OpSpec& op) {
  core::RunOptions o;
  o.protocol = core::Protocol::kBaWhp;
  o.n = w.n;
  o.seed = op.sim_seed;
  // Unanimous inputs, the value chosen by the seed. Split inputs decide
  // in round 0 or round 1 on a coin flip (4M against 8M words at n=512),
  // and 16 instances per run left that mix moving words by 18% and p50
  // latency by 45% from seed to seed.
  o.inputs.assign(w.n, (op.client_seed & 1) ? ba::kOne : ba::kZero);
  o.d = w.d;
  o.silent = w.silent;
  o.shards = w.shards;
  o.threads = w.threads;
  return o;
}

/// Delivery-event clock for binary BA: each correct process's first
/// top-level decision, stamped with the deliveries committed so far.
/// Passive, so attaching it changes nothing about the run.
class DecideClock final : public sim::Observer {
 public:
  explicit DecideClock(std::size_t n) : decided_(n, false) {}

  void on_deliver(const sim::Message&) override { ++deliveries_; }
  void on_decide(const sim::DecideEvent& e) override {
    if (!e.correct || e.scope != scope_ || decided_.at(e.who)) return;
    decided_[e.who] = true;
    latencies_.push_back(deliveries_);
  }

  std::uint64_t deliveries() const { return deliveries_; }
  const std::vector<std::uint64_t>& latencies() const { return latencies_; }

 private:
  sim::Tag scope_{"ba"};  // BaWhp's top-level tag in run_agreement
  std::vector<bool> decided_;
  std::uint64_t deliveries_ = 0;
  std::vector<std::uint64_t> latencies_;
};

std::string ba_fingerprint(bool decided, int decision, std::uint64_t round) {
  if (!decided) return "undecided";
  return "decision=" + std::to_string(decision) +
         "/round=" + std::to_string(round);
}

/// Seeds of retry `attempt` of a BA operation: a fresh instance (new
/// schedule, keys and committees) for the same caller inputs.
OpSpec attempt_spec(const OpSpec& op, std::size_t attempt) {
  if (attempt == 0) return op;
  OpSpec a = op;
  std::uint64_t state = op.sim_seed + attempt;
  a.sim_seed = splitmix64(state);
  a.env_seed = a.sim_seed ^ kEnvSeedMix;
  return a;
}

/// Folds one BA instance into its operation's outcome; true once the
/// operation has its decision. Latency and causal depth are the deciding
/// instance's, measured from its own start.
bool add_attempt(Outcome& total, const Outcome& inst) {
  total.attempted = 1;
  ++total.instances;
  total.deliveries += inst.deliveries;
  total.correct_words += inst.correct_words;
  total.messages += inst.messages;
  total.agreement = total.agreement && inst.agreement;
  if (!total.fingerprint.empty()) total.fingerprint += ';';
  total.fingerprint += inst.fingerprint;
  if (inst.failed) {
    ++total.undecided;
    total.failed = 1;
    return false;
  }
  total.failed = 0;
  total.decisions = total.requests = 1;
  total.causal_depth = inst.causal_depth;
  total.latencies = inst.latencies;
  total.latency_p50 = inst.latency_p50;
  total.latency_p90 = inst.latency_p90;
  return true;
}

void fill_ba_outcome(Outcome& out, const DecideClock& clock) {
  out.deliveries = clock.deliveries();
  out.latencies = clock.latencies();
  std::sort(out.latencies.begin(), out.latencies.end());
  set_percentiles(out, out.latencies);
}

/// Correct-sender words per tag family; sums to correct_words exactly
/// because words_by_phase partitions it.
std::vector<std::uint64_t> words_by_family(const sim::Metrics& m) {
  std::vector<std::uint64_t> words(kFamilies, 0);
  for (const auto& [phase, w] : m.words_by_phase())
    words[static_cast<std::size_t>(family_of_tag(phase))] += w;
  return words;
}

void check_ledger(TracedRun& run) {
  const Ledger& l = run.ledger;
  double self = l.committee_self_s + l.vrf_self_s;
  for (double s : l.family_self_s) self += s;
  // Every span opens inside a handler span, so the layers' self times
  // must add up to the handler spans.
  if (std::abs(self - l.handler_total_s) > 1e-6 * (1.0 + l.handler_total_s))
    run.violations.push_back("time ledger: layer self times sum to " +
                             std::to_string(self) + " s, handler spans to " +
                             std::to_string(l.handler_total_s) + " s");
  const double capacity = run.wall_s * static_cast<double>(run.threads);
  if (l.handler_total_s > capacity * 1.001 + 1e-4)
    run.violations.push_back("time ledger: handler time " +
                             std::to_string(l.handler_total_s) +
                             " s exceeds wall x threads " +
                             std::to_string(capacity) + " s");
  std::uint64_t words = 0;
  for (std::uint64_t w : run.words_by_family) words += w;
  if (words != run.outcome.correct_words)
    run.violations.push_back("word ledger: families sum to " +
                             std::to_string(words) + ", correct words are " +
                             std::to_string(run.outcome.correct_words));
}

void read_metrics(TracedRun& run, const sim::Metrics& m) {
  run.words_by_family = words_by_family(m);
  run.verify_shares = m.verify_shares();
  run.verify_rejects = m.verify_rejects();
  run.verify_memo_hits = m.verify_memo_hits();
  run.rs_encodes = m.rbc_encodes();
  run.rs_decodes = m.rbc_decodes();
  run.decode_failures = m.rbc_decode_failures();
}

TracedRun traced_log(const Workload& w, const OpSpec& op) {
  TracedRun run;
  const core::Env env = make_env(w, op);
  const session::LogRunOptions opts = log_options(w, op);
  const std::size_t n = env.n();

  auto vrf = std::make_shared<TimedVrf>(env.vrf);
  auto sampler = std::make_shared<CountingSampler>(vrf, env.registry,
                                                   env.params.sample_prob());
  auto batcher = std::make_shared<coin::BatchVerifier>(
      coin::BatchVerifier::Config{vrf, sampler, env.signer});

  // Mirrors session::run_replicated_log field for field.
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = opts.silent_faults;
  cfg.seed = opts.sim_seed;
  sim::Simulation sim(cfg);

  session::LogConfig lcfg;
  lcfg.params = env.params;
  lcfg.vrf = vrf;
  lcfg.registry = env.registry;
  lcfg.sampler = sampler;
  lcfg.signer = env.signer;
  lcfg.batcher = batcher;
  lcfg.total_slots = opts.slots;
  lcfg.pipeline_depth = opts.pipeline_depth;
  lcfg.batch_size = opts.batch_size;
  lcfg.max_rounds = opts.max_rounds;
  lcfg.max_candidates = opts.max_candidates;
  lcfg.client_seed = opts.client_seed;
  lcfg.rbc = opts.rbc;
  lcfg.skip_timeout = session::auto_skip_timeout(n, opts.pipeline_depth);

  std::vector<session::LogProcess*> logs;
  for (std::size_t i = 0; i < n; ++i) {
    auto p = std::make_unique<session::LogProcess>(lcfg);
    logs.push_back(p.get());
    sim.add_process(std::make_unique<ProcessShim>(std::move(p)));
  }
  sim::ProcessId next = static_cast<sim::ProcessId>(n);
  for (std::size_t i = 0; i < opts.silent_faults; ++i)
    sim.corrupt(--next, sim::FaultPlan::silent());

  reset_ledgers();
  const auto t0 = Clock::now();
  sim.start();
  sim.run_until([&] {
    for (sim::ProcessId i = 0; i < n; ++i)
      if (!sim.is_corrupted(i) && !logs[i]->all_committed()) return false;
    return true;
  });
  run.wall_s = seconds_since(t0);
  run.ledger = summed_ledgers();

  Outcome& out = run.outcome;
  out.attempted = opts.slots;
  bool all_committed = true;
  bool have_first = false;
  crypto::Digest first_fp{};
  std::vector<std::uint64_t> latencies;
  std::vector<CommittedLog> committed;
  std::size_t candidates = 0, activated = 0;
  for (sim::ProcessId i = 0; i < n; ++i) {
    if (sim.is_corrupted(i)) continue;
    const session::LogProcess& log = *logs[i];
    run.rounds_skipped += log.rounds_skipped();
    run.max_round = std::max(run.max_round, log.max_decided_round());
    for (std::size_t k = 0; k < log.slots_activated(); ++k) {
      candidates += log.slot_instance(k).candidates_activated();
      ++activated;
    }
    if (!log.all_committed()) {
      all_committed = false;
      continue;
    }
    const crypto::Digest fp = log.log_fingerprint();
    if (!have_first) {
      have_first = true;
      first_fp = fp;
      out.fingerprint = to_hex(fp);
      out.requests = log.requests_committed();
      for (std::size_t s = 0; s < opts.slots; ++s)
        if (log.committed(s).empty()) ++run.noop_slots;
    } else if (fp != first_fp) {
      out.agreement = false;
    }
    for (std::size_t s = 0; s < opts.slots; ++s)
      latencies.push_back(log.decide_latency(s));
    CommittedLog entries;
    for (std::size_t s = 0; s < opts.slots; ++s)
      entries.push_back(log.committed(s));
    committed.push_back(std::move(entries));
  }
  out.failed = all_committed ? 0 : opts.slots;
  out.decisions = opts.slots - out.failed;
  set_percentiles(out, latencies);
  out.deliveries = sim.deliveries();
  out.correct_words = sim.metrics().correct_words();
  out.messages = sim.metrics().messages_sent();
  for (sim::ProcessId i = 0; i < n; ++i)
    out.causal_depth = std::max(out.causal_depth, sim.depth_of(i));
  run.candidates_per_slot =
      activated ? static_cast<double>(candidates) / activated : 0.0;
  read_metrics(run, sim.metrics());
  run.sig_checks = batcher->sig_checks();
  run.sig_memo_hits = batcher->sig_memo().hits();
  run.sample_misses = sampler->sample_misses();

  std::vector<std::vector<Bytes>> proposals(opts.slots);
  for (std::size_t s = 0; s < opts.slots; ++s)
    for (sim::ProcessId p = 0; p < n; ++p)
      proposals[s].push_back(logs[0]->batch_for(p, s));
  for (std::string& v : check_logs(committed, proposals))
    run.violations.push_back(std::move(v));
  if (!out.agreement) run.violations.push_back("committed logs disagree");
  check_ledger(run);
  return run;
}

TracedRun traced_ba_instance(const Workload& w, const OpSpec& op) {
  TracedRun run;
  const core::RunOptions opts = ba_options(w, op);
  const core::Env env = make_env(w, op);
  const std::size_t n = opts.n;
  auto vrf = std::make_shared<TimedVrf>(env.vrf);

  // Mirrors core::run_agreement for kBaWhp with a static silent mix.
  sim::SimConfig scfg;
  scfg.n = n;
  scfg.f = std::min(env.params.f, opts.silent);
  scfg.seed = opts.seed;
  scfg.shards = opts.shards;
  scfg.threads = opts.threads;
  if (opts.shards > 0) scfg.expected_in_flight = n * 16;

  std::vector<std::shared_ptr<CountingSampler>> samplers;
  std::vector<std::shared_ptr<coin::BatchVerifier>> batchers;
  auto lane = [&]() -> std::pair<std::shared_ptr<CountingSampler>,
                                 std::shared_ptr<coin::BatchVerifier>> {
    // Sharded runs give every process a private sampler cache and
    // verifier lane; the legacy loop shares one.
    if (opts.shards == 0 && !samplers.empty())
      return {samplers.front(), batchers.front()};
    samplers.push_back(std::make_shared<CountingSampler>(
        vrf, env.registry, env.params.sample_prob()));
    batchers.push_back(std::make_shared<coin::BatchVerifier>(
        coin::BatchVerifier::Config{vrf, samplers.back(), env.signer}));
    return {samplers.back(), batchers.back()};
  };

  {
    sim::Simulation sim(scfg);
    auto clock = std::make_shared<DecideClock>(n);
    sim.add_observer(clock);
    std::vector<ba::BaWhp*> procs;
    for (sim::ProcessId i = 0; i < n; ++i) {
      auto [sampler, batcher] = lane();
      ba::BaWhp::Config cfg;
      cfg.tag = "ba";
      cfg.params = env.params;
      cfg.vrf = vrf;
      cfg.registry = env.registry;
      cfg.sampler = sampler;
      cfg.signer = env.signer;
      cfg.batcher = batcher;
      cfg.max_rounds = opts.max_rounds;
      auto p = std::make_unique<ba::BaWhp>(cfg, opts.inputs[i]);
      procs.push_back(p.get());
      sim.add_process(std::make_unique<ProcessShim>(std::move(p)));
    }
    sim.set_adversary(std::make_unique<sim::RandomAdversary>());
    sim::ProcessId next = static_cast<sim::ProcessId>(n);
    for (std::size_t i = 0; i < opts.silent; ++i)
      sim.corrupt(--next, sim::FaultPlan::silent());

    reset_ledgers();
    const auto t0 = Clock::now();
    sim.start();
    sim.run_until([&] {
      for (sim::ProcessId i = 0; i < n; ++i)
        if (!sim.is_corrupted(i) && !procs[i]->decided()) return false;
      return true;
    });
    run.wall_s = seconds_since(t0);
    run.ledger = summed_ledgers();
    run.threads = sim.sharded() ? std::max<std::size_t>(opts.threads, 1) : 1;

    Outcome& out = run.outcome;
    out.attempted = 1;
    bool all_decided = true;
    std::optional<int> decision;
    std::uint64_t round = 0;
    for (sim::ProcessId i = 0; i < n; ++i) {
      if (sim.is_corrupted(i)) continue;
      const ba::BaWhp& p = *procs[i];
      if (!p.decided()) {
        all_decided = false;
        continue;
      }
      if (!decision) decision = p.decision();
      if (*decision != p.decision()) out.agreement = false;
      round = std::max(round, p.decided_round());
    }
    out.failed = all_decided ? 0 : 1;
    out.decisions = out.requests = 1 - out.failed;
    out.fingerprint = ba_fingerprint(all_decided, decision.value_or(-1), round);
    out.correct_words = sim.metrics().correct_words();
    out.messages = sim.metrics().messages_sent();
    for (sim::ProcessId i = 0; i < n; ++i)
      out.causal_depth = std::max(out.causal_depth, sim.depth_of(i));
    fill_ba_outcome(out, *clock);
    if (out.deliveries != sim.deliveries())
      run.violations.push_back("decide clock saw " +
                               std::to_string(out.deliveries) + " of " +
                               std::to_string(sim.deliveries()) +
                               " deliveries");
    run.max_round = round;
    read_metrics(run, sim.metrics());
    run.supersteps = sim.supersteps();
    run.merge_stalls = sim.merge_stalls();
  }
  // Lanes are read after teardown, as run_agreement reads them.
  for (const auto& b : batchers) {
    run.sig_checks += b->sig_checks();
    run.sig_memo_hits += b->sig_memo().hits();
  }
  for (const auto& s : samplers) run.sample_misses += s->sample_misses();
  if (!run.outcome.agreement) run.violations.push_back("BA decisions disagree");
  check_ledger(run);
  return run;
}

TracedRun traced_ba(const Workload& w, const OpSpec& op) {
  TracedRun total;
  for (std::size_t a = 0; a < kMaxBaAttempts; ++a) {
    const TracedRun part = traced_ba_instance(w, attempt_spec(op, a));
    total.add(part);
    if (add_attempt(total.outcome, part.outcome)) break;
  }
  return total;
}

Outcome untraced_ba_instance(const Workload& w, const OpSpec& op,
                             double& wall_s) {
  const core::RunOptions opts = ba_options(w, op);
  auto clock = std::make_shared<DecideClock>(opts.n);
  core::RunInstruments instruments;
  instruments.observers.push_back(clock);
  const auto t0 = Clock::now();
  const core::RunReport r = core::run_agreement(opts, instruments);
  wall_s = seconds_since(t0);
  Outcome out;
  out.attempted = 1;
  out.failed = r.all_correct_decided ? 0 : 1;
  out.decisions = out.requests = 1 - out.failed;
  out.correct_words = r.correct_words;
  out.messages = r.messages;
  out.causal_depth = r.duration;
  out.fingerprint = ba_fingerprint(r.all_correct_decided,
                                   r.decision.value_or(-1),
                                   r.max_decided_round);
  out.agreement = r.agreement;
  fill_ba_outcome(out, *clock);
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> all;
    // Two slots per operation: with four, a seed-dependent extra round in
    // the later slots makes causal depth and p90 bimodal across seeds.
    Workload bracha;
    bracha.name = "log_bracha";
    // Four operations average out their seed-dependent causal depth.
    bracha.ops = 4;
    all.push_back(bracha);

    Workload ec = bracha;
    ec.name = "log_ec";
    ec.rbc = ba::RbcBackend::kEc;
    all.push_back(ec);

    Workload ba;
    ba.name = "ba_whp_n512";
    ba.kind = Kind::kBa;
    ba.n = 512;
    ba.silent = 8;
    ba.ops = 16;
    ba.traced_ops = 3;
    // The relaxed default d = 0.02 puts the W threshold at 37 of a
    // ~50-member committee and wedges about one n=512 instance in five
    // in the committee tail; d = 0.001 (W = 34) wedges a few percent.
    ba.d = 0.001;
    ba.shards = 4;
    ba.threads = 4;
    all.push_back(ba);

    Workload ddh;
    ddh.name = "log_ddh_small";
    ddh.n = 32;
    ddh.batch = 4;
    ddh.ddh_bits = 256;
    // One seed in a dozen takes an extra round at n=32 and doubles its
    // time; many short operations keep the rate steady across seeds.
    ddh.ops = 24;
    ddh.traced_ops = 2;
    all.push_back(ddh);
    return all;
  }();
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

Workload tiny(const Workload& w) {
  Workload t = w;
  t.n = 32;  // BA-WHP's smallest committee-feasible size
  t.silent = 1;
  if (w.kind == Kind::kBa) {
    t.shards = 2;
    t.threads = 2;
  } else {
    t.batch = std::min<std::size_t>(w.batch, 4);
    if (w.ddh_bits) t.ddh_bits = 64;
  }
  return t;
}

OpSpec op_spec(const Workload& w, std::uint64_t seed, std::size_t index) {
  std::uint64_t state = seed ^ (0xA0761D6478BD642FULL * (index + 1));
  OpSpec op;
  op.sim_seed = splitmix64(state);
  op.client_seed = splitmix64(state);
  op.env_seed = w.kind == Kind::kBa ? op.sim_seed ^ kEnvSeedMix
                                    : splitmix64(state);
  return op;
}

core::Env make_env(const Workload& w, const OpSpec& op) {
  if (w.kind == Kind::kBa)
    return core::Env::make(w.n, 0.25, w.d, op.env_seed, /*strict=*/false);
  if (w.ddh_bits)
    return core::Env::make_relaxed_ddh(w.n, op.env_seed, w.ddh_bits);
  return core::Env::make_relaxed(w.n, op.env_seed);
}

std::string Outcome::mismatch(const Outcome& o) const {
  std::ostringstream os;
  auto field = [&](const char* name, auto a, auto b) {
    if (os.tellp() == 0 && a != b)
      os << name << ": " << a << " vs " << b;
  };
  field("attempted", attempted, o.attempted);
  field("failed", failed, o.failed);
  field("requests", requests, o.requests);
  field("decisions", decisions, o.decisions);
  field("deliveries", deliveries, o.deliveries);
  field("correct_words", correct_words, o.correct_words);
  field("messages", messages, o.messages);
  field("causal_depth", causal_depth, o.causal_depth);
  field("decide_latency_p50", latency_p50, o.latency_p50);
  field("decide_latency_p90", latency_p90, o.latency_p90);
  field("latency_samples", latencies.size(), o.latencies.size());
  field("fingerprint", fingerprint, o.fingerprint);
  field("agreement", agreement, o.agreement);
  field("instances", instances, o.instances);
  field("undecided", undecided, o.undecided);
  if (os.tellp() == 0 && latencies != o.latencies)
    os << "decide latencies differ";
  return os.str();
}

Outcome run_untraced(const Workload& w, const OpSpec& op, double& wall_s) {
  if (w.kind == Kind::kLog) {
    Outcome out;
    const core::Env env = make_env(w, op);
    const session::LogRunOptions opts = log_options(w, op);
    const auto t0 = Clock::now();
    const session::LogReport r = session::run_replicated_log(env, opts);
    wall_s = seconds_since(t0);
    out.attempted = opts.slots;
    out.failed = r.all_committed ? 0 : opts.slots;
    out.decisions = opts.slots - out.failed;
    out.requests = r.requests_committed;
    out.deliveries = r.deliveries;
    out.correct_words = r.correct_words;
    out.messages = r.messages;
    out.causal_depth = r.duration;
    out.latency_p50 = r.decide_latency_p50;
    out.latency_p90 = r.decide_latency_p90;
    out.fingerprint = r.fingerprint;
    out.agreement = r.agreement;
    return out;
  }
  Outcome total;
  wall_s = 0;
  for (std::size_t a = 0; a < kMaxBaAttempts; ++a) {
    double wall = 0;
    const Outcome inst = untraced_ba_instance(w, attempt_spec(op, a), wall);
    wall_s += wall;
    if (add_attempt(total, inst)) break;
  }
  return total;
}

TracedRun run_traced(const Workload& w, const OpSpec& op) {
  return w.kind == Kind::kLog ? traced_log(w, op) : traced_ba(w, op);
}

void TracedRun::add(const TracedRun& part) {
  wall_s += part.wall_s;
  threads = part.threads;
  ledger.add(part.ledger);
  words_by_family.resize(kFamilies, 0);
  for (std::size_t f = 0; f < kFamilies; ++f)
    words_by_family[f] += part.words_by_family[f];
  sample_misses += part.sample_misses;
  supersteps += part.supersteps;
  merge_stalls += part.merge_stalls;
  rounds_skipped += part.rounds_skipped;
  max_round = std::max(max_round, part.max_round);
  candidates_per_slot += part.candidates_per_slot;
  noop_slots += part.noop_slots;
  verify_shares += part.verify_shares;
  verify_rejects += part.verify_rejects;
  verify_memo_hits += part.verify_memo_hits;
  sig_checks += part.sig_checks;
  sig_memo_hits += part.sig_memo_hits;
  rs_encodes += part.rs_encodes;
  rs_decodes += part.rs_decodes;
  decode_failures += part.decode_failures;
  violations.insert(violations.end(), part.violations.begin(),
                    part.violations.end());
}

std::vector<std::string> check_logs(
    const std::vector<CommittedLog>& logs,
    const std::vector<std::vector<Bytes>>& proposals) {
  std::vector<std::string> violations;
  if (logs.empty()) return violations;
  const CommittedLog& ref = logs.front();
  for (std::size_t i = 1; i < logs.size(); ++i)
    if (logs[i] != ref)
      violations.push_back("committed log #" + std::to_string(i) +
                           " differs from log #0");
  std::unordered_set<std::string> seen;
  for (std::size_t s = 0; s < ref.size(); ++s) {
    const Bytes& entry = ref[s];
    if (entry.empty()) continue;  // the no-op value
    const bool proposed =
        s < proposals.size() &&
        std::find(proposals[s].begin(), proposals[s].end(), entry) !=
            proposals[s].end();
    if (!proposed)
      violations.push_back("slot " + std::to_string(s) +
                           " commits a batch no process proposed");
    std::string token;
    for (std::size_t i = 0; i <= entry.size(); ++i) {
      if (i < entry.size() && entry[i] != '\n') {
        token.push_back(static_cast<char>(entry[i]));
        continue;
      }
      if (!seen.insert(token).second)
        violations.push_back("request " + token + " committed twice");
      token.clear();
    }
  }
  return violations;
}

}  // namespace perfbench
