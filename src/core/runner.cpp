#include "core/runner.h"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <sstream>

#include "ba/ba_process.h"
#include "ba/ba_whp.h"
#include "ba/ben_or.h"
#include "ba/bracha.h"
#include "ba/mmr.h"
#include "coin/dealer_coin.h"
#include "coin/shared_coin.h"
#include "coin/whp_coin.h"
#include "common/errors.h"
#include "net/reliable_process.h"
#include "sim/invariants.h"
#include "sim/simulation.h"

namespace coincidence::core {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kBenOr: return "ben-or";
    case Protocol::kMmrDealerCoin: return "rabin-dealer";
    case Protocol::kBracha: return "bracha";
    case Protocol::kMmrSharedCoin: return "mmr-vrf-coin";
    case Protocol::kMmrWhpCoin: return "mmr-whp-coin";
    case Protocol::kBaWhp: return "ba-whp";
  }
  return "unknown";
}

std::optional<Protocol> protocol_from_name(const std::string& name) {
  for (Protocol p : all_protocols())
    if (name == protocol_name(p)) return p;
  return std::nullopt;
}

const std::vector<Protocol>& all_protocols() {
  static const std::vector<Protocol> kAll = {
      Protocol::kBenOr, Protocol::kMmrDealerCoin, Protocol::kBracha,
      Protocol::kMmrSharedCoin, Protocol::kMmrWhpCoin, Protocol::kBaWhp};
  return kAll;
}

std::size_t min_n_for(Protocol p) {
  switch (p) {
    case Protocol::kBenOr: return 6;  // n > 5f with f = 1
    case Protocol::kMmrDealerCoin:
    case Protocol::kBracha:
    case Protocol::kMmrSharedCoin: return 4;  // n > 3f with f = 1
    // Committee protocols need W = ceil((2/3+3d)·8 ln n) <= n to be able
    // to collect a quorum at all; n = 32 is the smallest comfortable size
    // with the relaxed default parameters.
    case Protocol::kMmrWhpCoin: return 32;
    case Protocol::kBaWhp: return 32;
  }
  return 4;
}

const char* adversary_name(AdversaryKind a) {
  switch (a) {
    case AdversaryKind::kRandom: return "random";
    case AdversaryKind::kFifo: return "fifo";
    case AdversaryKind::kDelaySenders: return "delay-senders";
    case AdversaryKind::kSplit: return "split";
    case AdversaryKind::kHeavyTail: return "heavy-tail";
    case AdversaryKind::kAdaptiveCorruption: return "adaptive-corruption";
  }
  return "unknown";
}

std::optional<AdversaryKind> adversary_from_name(const std::string& name) {
  for (AdversaryKind a :
       {AdversaryKind::kRandom, AdversaryKind::kFifo,
        AdversaryKind::kDelaySenders, AdversaryKind::kSplit,
        AdversaryKind::kHeavyTail, AdversaryKind::kAdaptiveCorruption})
    if (name == adversary_name(a)) return a;
  return std::nullopt;
}

namespace {

std::size_t resilience_f(Protocol p, std::size_t n, const Env& env) {
  switch (p) {
    case Protocol::kBenOr: return (n - 1) / 5;
    case Protocol::kBracha:
    case Protocol::kMmrSharedCoin:
    case Protocol::kMmrWhpCoin:
    case Protocol::kMmrDealerCoin: return (n - 1) / 3;
    case Protocol::kBaWhp: return env.params.f;
  }
  return 0;
}

/// The scope tag each protocol reports its top-level decisions under —
/// the only scope where agreement is a *promise* (coin sub-instances are
/// weak coins and may legitimately "disagree").
const char* agreement_scope(Protocol p) {
  switch (p) {
    case Protocol::kBenOr: return "benor";
    case Protocol::kBracha: return "bracha";
    case Protocol::kMmrSharedCoin: return "mmr";
    case Protocol::kMmrWhpCoin: return "mmrw";
    case Protocol::kMmrDealerCoin: return "rabin";
    case Protocol::kBaWhp: return "ba";
  }
  return "";
}

std::unique_ptr<sim::Adversary> make_adversary(const RunOptions& o,
                                               std::size_t f,
                                               std::size_t adaptive_victims) {
  switch (o.adversary) {
    case AdversaryKind::kRandom:
      return std::make_unique<sim::RandomAdversary>();
    case AdversaryKind::kFifo:
      return std::make_unique<sim::FifoAdversary>();
    case AdversaryKind::kDelaySenders: {
      std::vector<sim::ProcessId> victims;
      for (std::size_t i = 0; i < f && i < o.n; ++i)
        victims.push_back(static_cast<sim::ProcessId>(i));
      return std::make_unique<sim::DelaySendersAdversary>(std::move(victims));
    }
    case AdversaryKind::kSplit:
      return std::make_unique<sim::SplitAdversary>(
          static_cast<sim::ProcessId>(o.n / 2));
    case AdversaryKind::kHeavyTail:
      return std::make_unique<sim::HeavyTailAdversary>();
    case AdversaryKind::kAdaptiveCorruption: {
      sim::AdaptiveCorruptionAdversary::Config cfg;
      cfg.max_victims = adaptive_victims;
      return std::make_unique<sim::AdaptiveCorruptionAdversary>(cfg);
    }
  }
  return std::make_unique<sim::RandomAdversary>();
}

/// Sees through an optional ReliableProcess wrapper to the protocol.
ba::BaProcess& as_ba(sim::Process& p) {
  if (auto* wrapped = dynamic_cast<net::ReliableProcess*>(&p))
    return dynamic_cast<ba::BaProcess&>(wrapped->inner());
  return dynamic_cast<ba::BaProcess&>(p);
}

std::size_t leading_ones(const std::vector<ba::Value>& inputs) {
  return static_cast<std::size_t>(
      std::find_if(inputs.begin(), inputs.end(),
                   [](ba::Value v) { return v != ba::kOne; }) -
      inputs.begin());
}

/// The shortest text strtod reads back as exactly `v`.
std::string exact(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

}  // namespace

RunOptions parse_run_options(const Args& args, RunOptions o) {
  const std::string proto = args.get("protocol", protocol_name(o.protocol));
  const auto protocol = protocol_from_name(proto);
  if (!protocol) throw ConfigError("unknown --protocol " + proto);
  o.protocol = *protocol;
  const std::string adv = args.get("adversary", adversary_name(o.adversary));
  const auto adversary = adversary_from_name(adv);
  if (!adversary) throw ConfigError("unknown --adversary " + adv);
  o.adversary = *adversary;
  const std::string rbc_name = args.get("rbc", ba::to_string(o.rbc));
  const auto rbc = ba::parse_rbc_backend(rbc_name);
  if (!rbc) throw ConfigError("unknown --rbc " + rbc_name);
  o.rbc = *rbc;

  auto get_size = [&](const char* key, std::size_t def) {
    return static_cast<std::size_t>(
        args.get_int(key, static_cast<std::int64_t>(def)));
  };
  o.n = get_size("n", o.n);
  o.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(o.seed)));
  o.epsilon = args.get_double("epsilon", o.epsilon);
  o.d = args.get_double("d", o.d);
  o.max_rounds = get_size("max-rounds", o.max_rounds);
  o.crash = get_size("crash", o.crash);
  o.silent = get_size("silent", o.silent);
  o.junk = get_size("junk", o.junk);
  o.crash_recover = get_size("crash-recover", o.crash_recover);
  o.recover_after = get_size("recover-after", o.recover_after);
  sim::LinkPlan& link = o.network.default_link;
  link.drop_p = args.get_double("drop", link.drop_p);
  link.dup_p = args.get_double("dup", link.dup_p);
  link.replay_p = args.get_double("replay", link.replay_p);
  o.reliable_channel = args.get_bool("reliable-channel", o.reliable_channel);
  o.transport_retransmits = static_cast<std::uint32_t>(
      get_size("retransmits", o.transport_retransmits));
  o.adaptive_victims = get_size("adaptive-victims", o.adaptive_victims);
  o.defer_verify = !args.get_bool("no-defer-verify", !o.defer_verify);
  o.shards = get_size("shards", o.shards);
  o.threads = get_size("sim-threads", o.threads);
  if (o.shards > 0 && o.adversary != AdversaryKind::kRandom)
    throw ConfigError("--shards needs --adversary random (the superstep "
                      "schedule replaces per-delivery adversary choices)");

  // Inputs are a ones-prefix: the first k processes propose 1.
  const std::size_t ones = get_size("ones", leading_ones(o.inputs));
  o.inputs.assign(o.n, ba::kZero);
  std::fill_n(o.inputs.begin(), std::min(ones, o.n), ba::kOne);
  o.expected_decision.reset();
  if (ones == 0) o.expected_decision = 0;
  else if (ones >= o.n) o.expected_decision = 1;
  if (args.has("expected"))
    o.expected_decision = static_cast<int>(args.get_int("expected", 0));

  if (args.has("preset"))
    o.chaos = sim::ChaosSchedule::preset(args.get("preset", ""), o.n);
  else if (args.has("schedule"))
    o.chaos = sim::ChaosSchedule::parse(args.get("schedule", ""));
  return o;
}

std::string repro_command(const RunOptions& o) {
  const RunOptions defaults;
  std::ostringstream os;
  os << "chaos_run --protocol " << protocol_name(o.protocol) << " --n "
     << o.n << " --seed " << o.seed << " --adversary "
     << adversary_name(o.adversary);
  // Inputs replay as a ones-prefix (--ones k), which implies the
  // expectation 0 for k = 0, 1 for k >= n and none in between.
  const std::size_t ones = leading_ones(o.inputs);
  const bool prefix = std::all_of(o.inputs.begin() + ones, o.inputs.end(),
                                  [](ba::Value v) { return v == ba::kZero; });
  if (ones) os << " --ones " << ones;
  std::optional<int> implied;
  if (ones == 0) implied = 0;
  else if (ones >= o.n) implied = 1;
  if (o.expected_decision && o.expected_decision != implied)
    os << " --expected " << *o.expected_decision;
  if (o.max_rounds != defaults.max_rounds)
    os << " --max-rounds " << o.max_rounds;
  if (o.crash) os << " --crash " << o.crash;
  if (o.silent) os << " --silent " << o.silent;
  if (o.junk) os << " --junk " << o.junk;
  if (o.crash_recover) os << " --crash-recover " << o.crash_recover;
  if (o.recover_after != defaults.recover_after)
    os << " --recover-after " << o.recover_after;
  if (o.epsilon != defaults.epsilon) os << " --epsilon " << exact(o.epsilon);
  if (o.d != defaults.d) os << " --d " << exact(o.d);
  if (o.rbc != defaults.rbc) os << " --rbc " << ba::to_string(o.rbc);
  const sim::LinkPlan& link = o.network.default_link;
  if (link.drop_p != 0.0) os << " --drop " << exact(link.drop_p);
  if (link.dup_p != 0.0) os << " --dup " << exact(link.dup_p);
  if (link.replay_p != 0.0) os << " --replay " << exact(link.replay_p);
  if (o.reliable_channel) os << " --reliable-channel";
  if (o.transport_retransmits != defaults.transport_retransmits)
    os << " --retransmits " << o.transport_retransmits;
  if (o.adaptive_victims != defaults.adaptive_victims)
    os << " --adaptive-victims " << o.adaptive_victims;
  if (!o.defer_verify) os << " --no-defer-verify";
  if (o.shards) os << " --shards " << o.shards;
  if (o.threads) os << " --sim-threads " << o.threads;
  if (!o.chaos.empty()) os << " --schedule \"" << o.chaos.spec() << '"';
  const sim::LinkPlan plain;
  const bool link_flags_suffice =
      o.network.overrides.empty() &&
      link.max_duplicates == plain.max_duplicates &&
      link.replay_window == plain.replay_window;
  const char* note = "  # ";
  if (!prefix) {
    os << note << "inputs are not a ones-prefix; --ones cannot replay them";
    note = "; ";
  }
  if (!link_flags_suffice)
    os << note << "link overrides, max_duplicates and replay_window have "
                  "no flag";
  return os.str();
}

Env env_for(const RunOptions& options) {
  return Env::make(options.n, options.epsilon, options.d,
                   options.seed ^ 0x9e3779b97f4a7c15ULL, /*strict=*/false);
}

RunReport run_agreement(const RunOptions& options,
                        const RunInstruments& instruments) {
  return run_agreement(options, env_for(options), instruments);
}

RunReport run_agreement(const RunOptions& options, const Env& env,
                        const RunInstruments& instruments) {
  COIN_REQUIRE(options.n >= min_n_for(options.protocol),
               "run_agreement: n below the protocol's minimum");
  COIN_REQUIRE(env.n() == options.n, "run_agreement: env.n() != options.n");

  coin::Setup setup = env;
  if (!options.defer_verify) setup.batcher = nullptr;
  const std::size_t f = resilience_f(options.protocol, options.n, env);
  const std::size_t faulty = options.crash + options.silent + options.junk +
                             options.crash_recover;
  COIN_REQUIRE(faulty <= f, "run_agreement: fault mix exceeds resilience f");

  std::vector<ba::Value> inputs = options.inputs;
  if (inputs.empty()) inputs.assign(options.n, ba::kZero);
  COIN_REQUIRE(inputs.size() == options.n, "run_agreement: inputs size != n");

  // Shared setup for the dealer-coin baseline (trusted dealer, §3).
  std::shared_ptr<coin::DealerCoinSetup> dealer_setup;
  if (options.protocol == Protocol::kMmrDealerCoin) {
    dealer_setup = std::make_shared<coin::DealerCoinSetup>(
        options.n, f, options.max_rounds, options.seed + 17);
  }

  auto make_process = [&](ba::Value input) -> std::unique_ptr<ba::BaProcess> {
    switch (options.protocol) {
      case Protocol::kBenOr: {
        ba::BenOr::Config cfg;
        cfg.n = options.n;
        cfg.f = f;
        cfg.max_rounds = options.max_rounds;
        return std::make_unique<ba::BenOr>(cfg, input);
      }
      case Protocol::kBracha: {
        ba::Bracha::Config cfg;
        cfg.n = options.n;
        cfg.f = f;
        cfg.max_rounds = options.max_rounds;
        cfg.rbc = options.rbc;
        return std::make_unique<ba::Bracha>(cfg, input);
      }
      case Protocol::kMmrSharedCoin: {
        ba::Mmr::Config cfg;
        cfg.tag = "mmr";
        cfg.n = options.n;
        cfg.f = f;
        cfg.max_rounds = options.max_rounds;
        cfg.make_coin = [setup, n = options.n, f](std::uint64_t round,
                                                  const std::string& tag) {
          coin::SharedCoin::Config ccfg;
          ccfg.tag = tag;
          ccfg.round = round;
          ccfg.n = n;
          ccfg.f = f;
          ccfg.vrf = setup.vrf;
          ccfg.registry = setup.registry;
          ccfg.batcher = setup.batcher;
          return std::make_unique<coin::SharedCoin>(ccfg);
        };
        return std::make_unique<ba::Mmr>(cfg, input);
      }
      case Protocol::kMmrWhpCoin: {
        ba::Mmr::Config cfg;
        cfg.tag = "mmrw";
        cfg.n = options.n;
        cfg.f = f;
        cfg.max_rounds = options.max_rounds;
        cfg.make_coin = [setup](std::uint64_t round,
                                const std::string& tag) {
          coin::WhpCoin::Config ccfg{setup};
          ccfg.tag = tag;
          ccfg.round = round;
          return std::make_unique<coin::WhpCoin>(ccfg);
        };
        return std::make_unique<ba::Mmr>(cfg, input);
      }
      case Protocol::kMmrDealerCoin: {
        ba::Mmr::Config cfg;
        cfg.tag = "rabin";
        cfg.n = options.n;
        cfg.f = f;
        cfg.max_rounds = options.max_rounds;
        cfg.make_coin = [dealer_setup](std::uint64_t round,
                                       const std::string& tag) {
          coin::DealerCoin::Config ccfg;
          ccfg.tag = tag;
          ccfg.round = round;
          ccfg.setup = dealer_setup;
          return std::make_unique<coin::DealerCoin>(ccfg);
        };
        return std::make_unique<ba::Mmr>(cfg, input);
      }
      case Protocol::kBaWhp: {
        ba::BaWhp::Config cfg{setup};
        cfg.tag = "ba";
        cfg.max_rounds = options.max_rounds;
        return std::make_unique<ba::BaWhp>(cfg, input);
      }
    }
    throw PreconditionError("run_agreement: unknown protocol");
  };

  // Chaos churn waves and the adaptive hunter spend corruption budget on
  // top of the static fault mix; widen the simulation's f for them —
  // never beyond the protocol's resilience. The adaptive hunter gets
  // whatever resilience the mix and the churn waves leave unclaimed.
  std::size_t budget =
      std::min(f, faulty + options.chaos.max_churn_victims());
  std::size_t adaptive_victims = 0;
  if (options.adversary == AdversaryKind::kAdaptiveCorruption) {
    adaptive_victims = std::min(options.adaptive_victims, f - budget);
    budget += adaptive_victims;
  }

  sim::SimConfig scfg;
  scfg.n = options.n;
  scfg.f = budget;
  scfg.seed = options.seed;
  scfg.network = options.network;
  scfg.chaos = options.chaos;
  scfg.shards = options.shards;
  scfg.threads = options.threads;

  RunReport report;
  report.faulty = faulty;
  report.protocol_f = f;
  // Inner scope: the Simulation (and with it every process and coin)
  // must be torn down before the BatchVerifier's queue ledger is read —
  // a destroyed coin is what reports its still-pending shares as
  // discarded-unverified.
  {
    sim::Simulation sim(scfg);
    if (instruments.detailed_metrics) sim.metrics().enable_detail();
    for (const auto& obs : instruments.observers) sim.add_observer(obs);
    std::shared_ptr<sim::InvariantChecker> checker;
    if (options.check_invariants) {
      sim::InvariantChecker::Config icfg;
      icfg.n = options.n;
      icfg.f = scfg.f;
      icfg.agreement_scopes = {agreement_scope(options.protocol)};
      icfg.expected_decision = options.expected_decision;
      checker = std::make_shared<sim::InvariantChecker>(icfg);
      sim.add_observer(checker);
    }
    for (sim::ProcessId i = 0; i < options.n; ++i) {
      std::unique_ptr<sim::Process> p = make_process(inputs[i]);
      if (options.reliable_channel) {
        net::ReliableChannelConfig rcfg;
        rcfg.max_retransmits = options.transport_retransmits;
        p = std::make_unique<net::ReliableProcess>(std::move(p), rcfg);
      }
      sim.add_process(std::move(p));
    }
    sim.set_adversary(make_adversary(options, f, adaptive_victims));

    // Faults land on the highest ids.
    sim::ProcessId next = static_cast<sim::ProcessId>(options.n);
    for (std::size_t i = 0; i < options.crash; ++i)
      sim.corrupt(--next, sim::FaultPlan::crash());
    for (std::size_t i = 0; i < options.silent; ++i)
      sim.corrupt(--next, sim::FaultPlan::silent());
    for (std::size_t i = 0; i < options.junk; ++i)
      sim.corrupt(--next, sim::FaultPlan::junk());
    for (std::size_t i = 0; i < options.crash_recover; ++i)
      sim.corrupt(--next,
                  sim::FaultPlan::crash_recover(options.recover_after));

    sim.start();
    sim.run_until([&] {
      // A run doesn't end while a chaos partition still holds traffic:
      // the schedule owes a heal, and the "partitions eventually heal"
      // invariant is checked against the *completed* schedule (the
      // simulator idle-advances to the heal event once decided).
      if (sim.chaos_held() != 0) return false;
      for (sim::ProcessId i = 0; i < options.n; ++i) {
        if (sim.is_corrupted(i)) continue;
        if (!as_ba(sim.process(i)).decided()) return false;
      }
      return true;
    });

    report.all_correct_decided = true;
    report.agreement = true;
    for (sim::ProcessId i = 0; i < options.n; ++i) {
      if (sim.is_corrupted(i)) continue;
      auto& p = as_ba(sim.process(i));
      if (!p.decided()) {
        report.all_correct_decided = false;
        continue;
      }
      if (!report.decision) report.decision = p.decision();
      if (*report.decision != p.decision()) report.agreement = false;
      report.max_decided_round = std::max(report.max_decided_round,
                                          p.decided_round());
    }
    if (!report.all_correct_decided) report.decision.reset();

    report.correct_words = sim.metrics().correct_words();
    report.messages = sim.metrics().messages_sent();
    report.words_by_tag = sim.metrics().words_by_tag();
    report.counters = sim.metrics().counters();
    report.corrupted = sim.corrupted_count();
    for (sim::ProcessId i = 0; i < options.n; ++i)
      report.duration = std::max(report.duration, sim.depth_of(i));

    if (sim.sharded()) {
      report.shards = sim.shard_count();
      report.supersteps = sim.supersteps();
      report.merge_stalls = sim.merge_stalls();
      for (const sim::ShardStats& s : sim.shard_stats())
        report.shard_deliveries.push_back(s.deliveries);
    }

    if (checker) {
      checker->finalize(sim.metrics().correct_words(), sim.chaos_held(),
                        sim.corrupted_count());
      for (const auto& v : checker->violations()) {
        report.invariant_violations.push_back(
            sim::InvariantChecker::describe(v));
        // The copy-pasteable repro: seed + config in the command, the
        // schedule phase in the describe() payload.
        std::cerr << "CHAOS-VIOLATION " << repro_command(options) << "  # "
                  << report.invariant_violations.back() << '\n';
      }
    }
    if (instruments.metrics_out) instruments.metrics_out(sim.metrics());
  }

  report.verify_enqueued = env.batcher->enqueued();
  report.verify_batch_flushed = env.batcher->flushed();
  report.verify_discarded = env.batcher->discarded();
  report.sig_checks = env.batcher->sig_checks();
  report.sig_memo_hits = env.batcher->sig_memo().hits();
  return report;
}

std::vector<RunReport> run_agreements_parallel(
    ThreadPool& pool, const std::vector<RunOptions>& options) {
  return parallel_map(pool, options.size(),
                      [&](std::size_t i) { return run_agreement(options[i]); });
}

}  // namespace coincidence::core
