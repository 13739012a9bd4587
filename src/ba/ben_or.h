// Ben-Or's randomized Byzantine Agreement (PODC 1983) — Table 1 row 1.
//
// The original Protocol B, resilience n > 5f, local coin:
//   step 1: broadcast <R, r, x>; wait for n−f of them.
//   step 2: if more than (n+f)/2 carry the same v, broadcast <P, r, v, D>,
//           else broadcast <P, r, ?>; wait for n−f proposals.
//   step 3: if more than (n+f)/2 proposals carry D(v): decide v.
//           else if at least f+1 carry D(v): x <- v.
//           else x <- local random bit.
//
// Expected exponential rounds in general (O(1) when f = O(sqrt n)):
// the bench suite uses it to regenerate the "local coin is hopeless at
// scale" row of Table 1.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ba/ba_process.h"
#include "ba/value.h"

namespace coincidence::ba {

class BenOr final : public BaProcess {
 public:
  struct Config {
    std::string tag = "benor";
    std::size_t n = 0;
    std::size_t f = 0;
    std::uint64_t max_rounds = 4096;  // exponential-expected-time guard
  };

  /// Grace rounds after deciding (one suffices deterministically: a
  /// decision quorum forces every correct x to the decided value).
  static constexpr std::uint64_t kExtraRounds = 2;

  BenOr(Config cfg, Value initial);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Message& msg) override;

  bool decided() const override { return decision_.has_value(); }
  int decision() const override;
  std::uint64_t decided_round() const override;
  std::uint64_t current_round() const { return round_; }

 private:
  // Proposal wire values: 0, 1, or "?" (no value crossed the threshold).
  static constexpr Value kQuestion = kBot;

  struct RoundState {
    std::map<Value, std::set<sim::ProcessId>> reports;    // step-1 counters
    std::set<sim::ProcessId> report_senders;
    std::map<Value, std::set<sim::ProcessId>> proposals;  // step-2 counters
    std::set<sim::ProcessId> proposal_senders;
    bool proposal_sent = false;
  };

  void begin_round(sim::Context& ctx);
  void check_progress(sim::Context& ctx);
  RoundState& state(std::uint64_t r) { return rounds_[r]; }
  /// "<tag>/<r>/R" or "<tag>/<r>/P", interned once per round and cached.
  sim::Tag round_tag(std::uint64_t r, char kind);

  Config cfg_;
  std::string round_prefix_;  // "<tag>/", the round tags' prefix
  Value x_;
  std::optional<int> decision_;
  std::uint64_t decision_round_ = 0;
  std::uint64_t round_ = 0;
  bool halted_ = false;
  std::map<std::uint64_t, RoundState> rounds_;
  // round_tag cache: [r] = {R-tag, P-tag}, grown as rounds begin.
  std::vector<std::array<sim::Tag, 2>> round_tags_;
};

}  // namespace coincidence::ba
