// Replicated log over pipelined multivalued BA slots — the application
// layer the paper's §3 remark ("setup has to occur once and may be used
// for any number of BA instances") is ultimately for: a state-machine-
// replication log where slot k's value is agreed by a MultiValuedBa
// instance tagged "slot<k>", all slots sharing one PKI/VRF setup.
//
// Each process carries an unbounded stream of simulated client requests
// (deterministically generated from LogConfig::client_seed, so runs are
// replayable). For slot k it proposes a batch of batch_size of its own
// requests; the slot's MvBa adopts exactly one proposer's batch (or the
// no-op value when every examined candidate loses its race), and every
// correct process appends the same payload at the same position.
//
// Pipelining: at most pipeline_depth slots are undecided ("in flight")
// at once. Slot k activates locally as soon as fewer than depth earlier
// slots are still undecided, so independent slots overlap instead of
// running lock-step; decisions may land out of order, and the log
// commits its contiguous decided prefix. Slots route through
// ba::InstanceRouter, the one router of nested instances: messages for
// slots a peer has not activated yet are held and replayed on
// activation in arrival order, and tags naming no slot below
// total_slots are dropped on every sighting.
//
// Exactly-once request semantics are out of scope here (a real system
// would dedup against the committed prefix); the layer reports honest
// counts of what it committed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ba/instance_router.h"
#include "ba/mv_ba.h"
#include "common/bytes.h"
#include "crypto/sha256.h"
#include "sim/process.h"

namespace coincidence::session {

/// The setup is handed whole to every slot's MultiValuedBa.
struct LogConfig : coin::Setup {
  /// Slot k's MvBa instance tag is "<slot_prefix><k>".
  std::string slot_prefix = "slot";

  std::size_t total_slots = 8;
  /// Max locally-undecided slots in flight at once (>= 1).
  std::size_t pipeline_depth = 4;
  /// Client requests batched into each proposal.
  std::size_t batch_size = 4;

  // Forwarded to every slot's MultiValuedBa (see mv_ba.h / ba_whp.h).
  std::uint64_t max_rounds = 32;
  std::uint64_t extra_rounds = 4;
  std::uint64_t skip_timeout = 0;
  std::size_t max_candidates = 8;
  /// Dissemination backend for every slot's proposal broadcasts
  /// (ba/broadcast.h): Bracha or erasure-coded AVID-M.
  ba::RbcBackend rbc = ba::RbcBackend::kBracha;

  /// Seed of the simulated client-request stream.
  std::uint64_t client_seed = 0xC11E57;
};

class LogProcess final : public sim::Process {
 public:
  explicit LogProcess(LogConfig cfg);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Message& msg) override;
  void on_wakeup(sim::Context& ctx) override;

  std::size_t slots_activated() const { return slots_.size(); }
  std::size_t slots_decided() const { return decided_count_; }
  /// Length of the contiguous committed prefix.
  std::size_t committed_count() const { return log_.size(); }
  bool all_committed() const { return log_.size() == cfg_.total_slots; }
  const Bytes& committed(std::size_t slot) const { return log_.at(slot); }
  /// Requests in the committed prefix (no-op slots contribute zero).
  std::uint64_t requests_committed() const { return requests_committed_; }

  /// sha256 over the length-prefixed committed entries — byte-equal
  /// across correct processes iff their logs agree.
  crypto::Digest log_fingerprint() const;

  /// Telemetry (delivery-event clock): per-slot activation -> local
  /// decision, and activation -> contiguous commit. Require the slot to
  /// have reached the respective state.
  std::uint64_t decide_latency(std::size_t slot) const;
  std::uint64_t commit_latency(std::size_t slot) const;

  std::uint64_t rounds_skipped() const;
  std::uint64_t max_decided_round() const;
  /// Whitebox: the MvBa instance of an activated slot (tests, stall
  /// diagnostics).
  const ba::MultiValuedBa& slot_instance(std::size_t k) const {
    return *slots_.children().at(k);
  }
  /// The proposal this process would make for `slot` (exposed so tests
  /// can check validity: every committed batch is some process's batch).
  Bytes batch_for(sim::ProcessId proposer, std::size_t slot) const;

 private:
  /// The driver loop: latch local slot decisions, open new slots while
  /// the pipeline has room, extend the contiguous committed prefix.
  void pump(sim::Context& ctx);
  void activate_slot(sim::Context& ctx);

  LogConfig cfg_;
  sim::ProcessId self_ = 0;  // bound in on_start

  // Slot k's instance lives at slots_[k], tagged "<slot_prefix><k>";
  // activation is strictly sequential, and traffic for a slot not
  // activated yet is held and replayed on activation. Done flags latch
  // decided() transitions.
  ba::InstanceRouter<ba::MultiValuedBa> slots_;
  std::vector<bool> slot_done_;
  std::size_t decided_count_ = 0;

  std::vector<Bytes> log_;  // committed contiguous prefix
  std::uint64_t requests_committed_ = 0;

  std::vector<std::uint64_t> activated_at_;
  std::vector<std::uint64_t> decided_at_;
  std::vector<std::uint64_t> committed_at_;
};

}  // namespace coincidence::session
