// Standalone coin experiment runner — drives one coin instance across a
// cluster for the success-rate, committee and adversary-ablation benches.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/env.h"

namespace coincidence::core {

enum class CoinKind {
  kShared,  // Algorithm 1 (full participation)
  kWhp,     // Algorithm 2 (committee-sampled)
  kDealer,  // Rabin-style trusted-dealer coin
};

const char* coin_name(CoinKind k);

struct CoinOptions {
  CoinKind kind = CoinKind::kShared;
  std::size_t n = 32;
  std::uint64_t seed = 1;
  std::uint64_t round = 0;
  double epsilon = 0.25;
  double d = 0.02;

  /// Fault mix applied to the highest ids (silent processes).
  std::size_t silent = 0;

  /// Legal content-oblivious hostility: starve the first `delay_senders`
  /// processes' messages (DelaySendersAdversary).
  std::size_t delay_senders = 0;

  /// E6 ablation: run the ILLEGAL content-aware CoinBiasAdversary that
  /// forces the coin toward `bias_toward`. Violates delayed-adaptivity.
  bool content_aware_bias = false;
  int bias_toward = 0;
  /// Corruption budget handed to the biasing adversary (clamped to the
  /// model's f so content-awareness stays the only illegal ingredient).
  std::size_t bias_budget = 0;
  /// Scheduling latitude: deliveries a message may be bypassed before
  /// being forced through (0 = simulator default 16n). The ablation bench
  /// widens this — asynchrony allows unbounded-but-finite delays.
  std::uint64_t fairness_bound = 0;

  /// Sharded superstep engine (SimConfig::shards): 0 = legacy loop.
  /// Incompatible with the scheduling adversaries (delay_senders /
  /// content_aware_bias), whose per-delivery choices the hash-addressed
  /// schedule replaces. Runs on min(shards, hardware) workers.
  std::size_t shards = 0;
};

struct CoinReport {
  bool all_returned = false;      // every correct process output a bit
  std::optional<int> agreed_bit;  // set iff all correct agreed
  std::vector<std::optional<int>> outputs;
  std::uint64_t correct_words = 0;
  std::uint64_t duration = 0;
};

CoinReport run_coin_trial(const CoinOptions& options);

}  // namespace coincidence::core
