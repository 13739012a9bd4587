// Mostéfaoui–Moumen–Raynal (JACM 2015): signature-free asynchronous
// binary Byzantine consensus, n > 3f, O(n²) messages, O(1) expected time
// with a shared coin — Table 1 row 6, and §4's observation that plugging
// our Algorithm-1 coin into it yields an O(n²) VRF-based BA (the
// Cachin-style operating point). With the Rabin dealer coin it covers
// Table 1 row 2.
//
// Per round r:
//   BV-broadcast(est):   broadcast <bval, v>; relay after f+1 distinct
//                        copies; v joins bin_values after 2f+1.
//   on bin_values != {}: broadcast <aux, w> for some w in bin_values.
//   wait for n−f <aux> messages whose values all lie in bin_values;
//   vals <- that value set; c <- shared_coin(r).
//   vals == {v}: est <- v; decide v if v == c.
//   vals == {0,1}: est <- c.
//
// The coin is injected via a factory, so the same skeleton runs with
// SharedCoin (Algorithm 1), DealerCoin (Rabin-style), or WhpCoin.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ba/ba_process.h"
#include "ba/value.h"
#include "coin/coin_protocol.h"

namespace coincidence::ba {

class Mmr final : public BaProcess {
 public:
  /// Builds the round-r coin instance routed under `tag`.
  using CoinFactory = std::function<std::unique_ptr<coin::CoinProtocol>(
      std::uint64_t round, const std::string& tag)>;

  struct Config {
    std::string tag = "mmr";
    std::size_t n = 0;
    std::size_t f = 0;
    std::uint64_t max_rounds = 256;
    /// Rounds to keep participating after deciding. MMR with an imperfect
    /// coin has no bound on how much later stragglers decide (a decider's
    /// singleton does not force est adoption the way Algorithm 4's graded
    /// agreement does), so this is a probabilistic grace window: each
    /// extra round halves the chance a straggler is left stranded.
    std::uint64_t extra_rounds = 8;
    CoinFactory make_coin;
  };

  Mmr(Config cfg, Value initial);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Message& msg) override;

  bool decided() const override { return decision_.has_value(); }
  int decision() const override;
  std::uint64_t decided_round() const override;
  std::uint64_t current_round() const { return round_; }

 private:
  struct RoundState {
    std::map<Value, std::set<sim::ProcessId>> bval_senders;
    std::set<Value> bval_relayed;     // values this process re-broadcast
    std::set<Value> bin_values;
    bool aux_sent = false;
    std::map<sim::ProcessId, Value> aux;  // first aux per sender
  };

  std::string round_tag(std::uint64_t r) const {
    return cfg_.tag + "/" + std::to_string(r);
  }
  /// Interned per-round broadcast tags, built lazily and reused: rounds
  /// broadcast many times but intern each tag exactly once.
  struct RoundTags {
    sim::Tag bval;
    sim::Tag aux;
  };
  const RoundTags& round_tags(std::uint64_t r);
  RoundState& state(std::uint64_t r) { return rounds_[r]; }

  void begin_round(sim::Context& ctx);
  void broadcast_bval(sim::Context& ctx, std::uint64_t r, Value v);
  void check_progress(sim::Context& ctx);
  void on_coin(sim::Context& ctx, int c);

  Config cfg_;
  std::string round_prefix_;  // "<tag>/", the round tags' prefix
  Value est_;
  std::optional<int> decision_;
  std::uint64_t decision_round_ = 0;
  std::uint64_t round_ = 0;
  bool waiting_for_coin_ = false;
  bool halted_ = false;
  std::set<Value> vals_;  // the aux value set fixed before the coin flip

  std::map<std::uint64_t, RoundState> rounds_;
  std::vector<RoundTags> round_tags_;
  std::unique_ptr<coin::CoinProtocol> coin_;
  std::vector<std::unique_ptr<coin::CoinProtocol>> retired_coins_;
  std::vector<sim::Message> coin_backlog_;
};

}  // namespace coincidence::ba
