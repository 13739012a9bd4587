// Multivalued Byzantine Agreement via leaderless reduction to binary BA.
//
// §3 of the paper positions BA WHP as a drop-in binary core; the classic
// way to lift a binary protocol to arbitrary values without a leader
// (and hence without a leader bottleneck or view-change machinery) is
// the Cachin–Kursawe–Petzold–Shoup / Ben-Or–El-Yaniv style reduction:
//
//   1. every process reliably broadcasts its proposal (Bracha RBC, so
//      all correct processes converge on the same per-source payloads);
//   2. candidates are examined in a deterministic pseudo-random order
//      (rank by sha256(tag, pid) — no process can place itself first
//      for a given instance tag without breaking the hash);
//   3. for candidate k the processes run binary BA WHP on the predicate
//      "I have delivered candidate k's broadcast", input 1 iff the RBC
//      delivery already fired locally at activation time;
//   4. the first candidate whose BA decides 1 is adopted: its delivered
//      payload (identical everywhere, by RBC agreement) is the decision.
//      BA validity guarantees some correct process had delivered it, and
//      RBC totality then guarantees every correct process eventually
//      does — adopters who are still waiting decide upon delivery.
//   5. if every examined candidate's BA decides 0 (possible only when
//      the adversary wins every race; expected candidates examined is
//      O(1) since > half the ranks are correct), the instance closes
//      with a no-op decision (decision() == -1, empty value).
//
// Agreement is inherited from binary BA agreement (all correct processes
// see the same per-candidate bits, in the same order) plus RBC agreement
// (the adopted index maps to one payload). Candidate BAs are activated
// strictly sequentially — BA k+1 exists only after BA k decided 0 — so
// at most one candidate is ever adopted. They route through
// ba::InstanceRouter under "<tag>/c<k>": traffic for a candidate not
// activated yet is held and replayed on activation, and a tag naming no
// candidate below the examination limit is dropped on every sighting.
//
// The skip_timeout liveness fallback of BaWhp (see ba_whp.h) forwards
// into every inner instance; sessions that pipeline many MvBa slots
// arm it so a committee-tail wedge in any inner round cannot stall the
// log. Crash-recovery persistence is NOT implemented here (inner BAs
// persist their own snapshots, but the reduction state — delivered
// payloads, candidate cursor — is in-memory only); use under silent /
// omission fault plans.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ba/ba_process.h"
#include "ba/ba_whp.h"
#include "ba/broadcast.h"
#include "ba/instance_router.h"
#include "common/bytes.h"

namespace coincidence::ba {

class MultiValuedBa final : public BaProcess {
 public:
  /// The setup is handed whole to every inner BaWhp; the batcher also
  /// memoizes the erasure-coded broadcasts' verdicts.
  struct Config : coin::Setup {
    std::string tag = "mvba";
    /// Per inner binary instance (see BaWhp::Config).
    std::uint64_t max_rounds = 64;
    std::uint64_t extra_rounds = 4;
    /// Round-skip liveness fallback, forwarded to inner instances.
    std::uint64_t skip_timeout = 0;
    /// Stop examining candidates after this many rejections and close
    /// with the no-op decision. 0 means all n proposers are eligible.
    std::size_t max_candidates = 0;
    /// Dissemination backend for the proposal broadcasts (broadcast.h):
    /// Bracha echoes the full value n² times, the erasure-coded backend
    /// ships fragments + hashes. Identical delivery semantics.
    RbcBackend rbc = RbcBackend::kBracha;
  };

  /// `proposal` is this process's value for the instance; it may be
  /// empty (an empty proposal is still a valid candidate payload).
  MultiValuedBa(Config cfg, Bytes proposal);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Message& msg) override;
  void on_wakeup(sim::Context& ctx) override;

  bool decided() const override { return decided_; }
  /// Adopted candidate's rank index, or -1 for the no-op decision.
  /// (BaProcess narrows this to {0,1} for binary protocols; multivalued
  /// harnesses read decided_value()/decided_proposer() instead.)
  int decision() const override;
  /// Round (of the adopted candidate's inner BA) in which it decided 1;
  /// 0 for the no-op decision.
  std::uint64_t decided_round() const override;

  /// The agreed payload; requires decided(). Empty for the no-op
  /// decision — disambiguate via decided_noop() if empty payloads are
  /// legal proposals in your application.
  const Bytes& decided_value() const;
  bool decided_noop() const { return decided_ && adopted_ < 0; }
  /// The proposer whose broadcast was adopted; requires a non-noop
  /// decision.
  sim::ProcessId decided_proposer() const;

  /// Whitebox introspection for tests and session diagnostics.
  const std::vector<sim::ProcessId>& rank_order() const { return rank_; }
  std::size_t candidates_activated() const { return bas_.size(); }
  std::size_t rbc_delivered_count() const { return rbc_->delivered_count(); }
  std::uint64_t rounds_skipped() const;
  std::uint64_t max_inner_round() const;
  const BaWhp* inner(std::size_t k) const {
    return k < bas_.size() ? &bas_[k] : nullptr;
  }

 private:
  std::size_t effective_max() const;
  void activate_next(sim::Context& ctx);
  /// The single state-machine driver: latches fresh inner decisions
  /// (adopt on 1, queue the next candidate on 0), activates the queued
  /// candidate once its gate opens, closes no-op when candidates run
  /// out. Looped to a fixed point — a replayed backlog can decide a
  /// freshly activated instance on the spot.
  void pump(sim::Context& ctx);
  void adopt(sim::Context& ctx, std::size_t k);
  void finish(sim::Context& ctx);
  void on_rbc_deliver(sim::ProcessId source, const Bytes& payload);

  Config cfg_;
  Bytes proposal_;
  std::unique_ptr<Broadcast> rbc_;
  // Deterministic candidate examination order: pids sorted by
  // sha256(tag || "/rank/" || pid), ties by pid.
  std::vector<sim::ProcessId> rank_;
  // Delivered RBC payloads, indexed by *proposer id* (not rank).
  std::vector<std::optional<Bytes>> delivered_;

  // Inner binary instances, indexed by rank and tagged "<tag>/c<k>":
  // activated sequentially, with traffic for a candidate not activated
  // yet held and replayed on activation. Done flags latch the decided()
  // transition so each inner decision is acted on exactly once.
  InstanceRouter<BaWhp> bas_;
  std::vector<bool> ba_done_;

  // Candidate bas_.size() is due for activation (start, or the previous
  // candidate decided 0) but waits for its gate: the candidate's own RBC
  // delivery, or n-f total deliveries (so a crashed proposer cannot
  // stall the examination — with n-f delivered, input 0 is honest).
  // Without the gate every process would input 0 to candidate 0, whose
  // BA starts before any delivery can fire, wasting a full instance.
  bool activation_due_ = true;
  bool decided_ = false;
  int adopted_ = -1;
  std::uint64_t decided_round_ = 0;
  // Set when the adopted candidate's RBC delivery has not fired locally
  // yet; the pending on_rbc_deliver completes the decision.
  std::optional<sim::ProcessId> awaiting_proposer_;
  Bytes value_;
  // Deliveries fire from inside rbc_.handle / rbc_.broadcast frames; the
  // callback needs the Context active in the enclosing dispatch.
  sim::Context* ctx_ = nullptr;
};

}  // namespace coincidence::ba
