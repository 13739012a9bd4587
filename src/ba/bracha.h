// Bracha's randomized Byzantine Agreement (1987) — Table 1 row 3.
//
// Resilience n > 3f with a local coin, all steps carried over Bracha
// reliable broadcast (rbc.h):
//
//   step 1: RBC(x); wait n−f deliveries; x <- majority value.
//   step 2: RBC(x); wait n−f; if some v occurs > n/2 times, x <- D(v).
//   step 3: RBC(x); wait n−f; if #D(v) >= 2f+1 decide v;
//           else if #D(v) >= f+1: x <- v; else x <- local random bit.
//
// Faithfulness note: Bracha's full message-validation predicate (each
// step-s message must be justifiable from n−f step-(s−1) messages) is
// replaced by domain validation of the wire values; the RBC layer and the
// threshold logic are implemented exactly. This affects resilience only
// against value-lying Byzantine strategies, not the complexity profile
// this baseline exists to measure (O(n³) messages/round via n RBCs,
// exponential expected rounds with a local coin).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "ba/ba_process.h"
#include "ba/broadcast.h"
#include "ba/value.h"

namespace coincidence::ba {

class Bracha final : public BaProcess {
 public:
  struct Config {
    std::string tag = "bracha";
    std::size_t n = 0;
    std::size_t f = 0;
    std::uint64_t max_rounds = 4096;
    /// Grace rounds after deciding (see ben_or.h).
    std::uint64_t extra_rounds = 2;
    /// Dissemination backend for every step's broadcast (broadcast.h).
    RbcBackend rbc = RbcBackend::kBracha;
  };

  Bracha(Config cfg, Value initial);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Message& msg) override;

  bool decided() const override { return decision_.has_value(); }
  int decision() const override;
  std::uint64_t decided_round() const override;
  std::uint64_t current_round() const { return round_; }

 private:
  // Wire encoding: 0 / 1 plain, 0x10 | v for the D(v) decision marker.
  static constexpr std::uint8_t kDMark = 0x10;
  static bool is_plain(std::uint8_t w) { return w == 0 || w == 1; }
  static bool is_marked(std::uint8_t w) {
    return w == (kDMark | 0) || w == (kDMark | 1);
  }

  struct StepState {
    std::unique_ptr<Broadcast> rbc;
    std::map<sim::ProcessId, std::uint8_t> delivered;
    bool broadcast_done = false;
  };

  StepState& step_state(sim::Context& ctx, std::uint64_t r, int step);
  void enter_step(sim::Context& ctx);
  void check_progress(sim::Context& ctx);

  Config cfg_;
  std::string round_prefix_;  // "<tag>/", the round tags' prefix
  std::uint8_t x_;  // current value, possibly D-marked between steps 2-3
  std::optional<int> decision_;
  std::uint64_t decision_round_ = 0;
  std::uint64_t round_ = 0;
  int step_ = 1;
  bool halted_ = false;
  std::map<std::pair<std::uint64_t, int>, StepState> steps_;
};

}  // namespace coincidence::ba
