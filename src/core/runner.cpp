#include "core/runner.h"

#include <algorithm>
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

}  // namespace

std::string repro_command(const RunOptions& o) {
  const RunOptions defaults;
  std::ostringstream os;
  os << "chaos_run --protocol " << protocol_name(o.protocol) << " --n "
     << o.n << " --seed " << o.seed << " --adversary "
     << adversary_name(o.adversary);
  // chaos_run replays inputs as a ones-prefix (--ones k), expecting 0 for
  // k = 0, 1 for k >= n and nothing in between unless --expected says.
  const auto zeros = std::find_if(o.inputs.begin(), o.inputs.end(),
                                  [](ba::Value v) { return v != ba::kOne; });
  const auto ones = static_cast<std::size_t>(zeros - o.inputs.begin());
  const bool prefix = std::all_of(zeros, o.inputs.end(),
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
  if (o.reliable_channel) {
    os << " --reliable";
    if (o.transport_retransmits != defaults.transport_retransmits)
      os << " --retransmits " << o.transport_retransmits;
  }
  if (o.adaptive_victims != defaults.adaptive_victims)
    os << " --adaptive-victims " << o.adaptive_victims;
  if (!o.defer_verify) os << " --no-defer-verify";
  if (!o.chaos.empty()) os << " --schedule \"" << o.chaos.spec() << '"';
  if (!prefix)
    os << "  # inputs are not a ones-prefix; --ones cannot replay them";
  return os.str();
}

RunReport run_agreement(const RunOptions& options) {
  return run_agreement(options, RunInstruments{});
}

RunReport run_agreement(const RunOptions& options,
                        const RunInstruments& instruments) {
  COIN_REQUIRE(options.n >= min_n_for(options.protocol),
               "run_agreement: n below the protocol's minimum");

  Env env = Env::make(options.n, options.epsilon, options.d,
                      options.seed ^ 0x9e3779b97f4a7c15ULL,
                      /*strict=*/false);
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
        cfg.make_coin = [env, n = options.n, f,
                         defer = options.defer_verify](
                            std::uint64_t round, const std::string& tag) {
          coin::SharedCoin::Config ccfg;
          ccfg.tag = tag;
          ccfg.round = round;
          ccfg.n = n;
          ccfg.f = f;
          ccfg.vrf = env.vrf;
          ccfg.registry = env.registry;
          if (defer) ccfg.batcher = env.batcher;
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
        cfg.make_coin = [env, defer = options.defer_verify](
                            std::uint64_t round, const std::string& tag) {
          coin::WhpCoin::Config ccfg;
          ccfg.tag = tag;
          ccfg.round = round;
          ccfg.params = env.params;
          ccfg.vrf = env.vrf;
          ccfg.registry = env.registry;
          ccfg.sampler = env.sampler;
          if (defer) ccfg.batcher = env.batcher;
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
        ba::BaWhp::Config cfg;
        cfg.tag = "ba";
        cfg.params = env.params;
        cfg.vrf = env.vrf;
        cfg.registry = env.registry;
        cfg.sampler = env.sampler;
        cfg.signer = env.signer;
        if (options.defer_verify) cfg.batcher = env.batcher;
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
