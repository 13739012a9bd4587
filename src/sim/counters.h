// Run counters: the scalar tallies Metrics keeps beside the §2 word and
// time measures — link faults, transport repair, dead letters, deferred
// verification, erasure coding and chaos orchestration. They are pure
// observation, always on, and never influence the run.
//
// Every counter is one row of kCounterTable. Metrics exports, resets and
// stores counters by iterating the table, protocols bump them through
// Context::count, and sharded runs buffer each bump as one generic
// superstep effect — so adding a counter is one enumerator, one table
// row and its call site.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace coincidence::sim {

enum class Counter : std::uint8_t {
  kLinkDrops,
  kLinkDroppedWords,
  kLinkDuplicates,
  kLinkReplays,
  /// Retransmissions by correct processes, kept out of correct_words so
  /// the §2 measure stays comparable across link profiles.
  kRetransmits,
  kRetransmitWords,
  /// Frames a transport abandoned after exhausting retransmissions.
  kDeadLetters,
  kDeadLetterWords,
  /// Deferred coin-share verification (coin/verify_queue.h). Rejected
  /// shares were discarded without entering protocol state.
  kVerifyFlushes,
  kVerifyShares,
  kVerifyRejects,
  kVerifyMemoHits,
  /// Deferred signature verification (the approver's ok-proof sweep).
  kSigVerifyFlushes,
  kSigVerifySigs,
  kSigVerifyRejects,
  kSigVerifyMemoHits,
  /// Erasure-coded dissemination (ba/rbc_ec.h): encodes fire at the
  /// source and at the deliver-time re-encode check; a decode failure
  /// marks an inconsistently dispersed (poisoned) broadcast.
  kRbcEncodes,
  kRbcFragmentsEncoded,
  kRbcDecodes,
  kRbcFragmentsDecoded,
  kRbcDecodeFailures,
  /// Chaos orchestration (sim/chaos.h). held == released at quiescence
  /// is the "partitions eventually heal" invariant's metric side.
  kPartitionHeld,
  kPartitionHeldWords,
  kPartitionDropped,
  kPartitionDroppedWords,
  kPartitionReleased,
  kStormCopies,
  kChurnCrashes,
  kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

struct CounterInfo {
  Counter id;
  /// JSON key in Metrics::to_json; Prometheus exports it as
  /// coincidence_<name>_total.
  const char* name;
  bool exported_to_prometheus;
};

/// In enum order, which is also the export order.
inline constexpr std::array<CounterInfo, kCounterCount> kCounterTable = {{
    {Counter::kLinkDrops, "link_drops", true},
    {Counter::kLinkDroppedWords, "link_dropped_words", false},
    {Counter::kLinkDuplicates, "link_duplicates", true},
    {Counter::kLinkReplays, "link_replays", true},
    {Counter::kRetransmits, "retransmits", true},
    {Counter::kRetransmitWords, "retransmit_words", false},
    {Counter::kDeadLetters, "dead_letters", true},
    {Counter::kDeadLetterWords, "dead_letter_words", true},
    {Counter::kVerifyFlushes, "verify_flushes", true},
    {Counter::kVerifyShares, "verify_shares", true},
    {Counter::kVerifyRejects, "verify_rejects", true},
    {Counter::kVerifyMemoHits, "verify_memo_hits", true},
    {Counter::kSigVerifyFlushes, "sig_verify_flushes", true},
    {Counter::kSigVerifySigs, "sig_verify_sigs", true},
    {Counter::kSigVerifyRejects, "sig_verify_rejects", true},
    {Counter::kSigVerifyMemoHits, "sig_verify_memo_hits", true},
    {Counter::kRbcEncodes, "rbc_encodes", true},
    {Counter::kRbcFragmentsEncoded, "rbc_fragments_encoded", true},
    {Counter::kRbcDecodes, "rbc_decodes", true},
    {Counter::kRbcFragmentsDecoded, "rbc_fragments_decoded", true},
    {Counter::kRbcDecodeFailures, "rbc_decode_failures", true},
    {Counter::kPartitionHeld, "partition_held", true},
    {Counter::kPartitionHeldWords, "partition_held_words", false},
    {Counter::kPartitionDropped, "partition_dropped", true},
    {Counter::kPartitionDroppedWords, "partition_dropped_words", false},
    {Counter::kPartitionReleased, "partition_released", true},
    {Counter::kStormCopies, "storm_copies", true},
    {Counter::kChurnCrashes, "churn_crashes", true},
}};

constexpr bool counter_table_in_enum_order() {
  for (std::size_t i = 0; i < kCounterCount; ++i)
    if (static_cast<std::size_t>(kCounterTable[i].id) != i) return false;
  return true;
}
static_assert(counter_table_in_enum_order(),
              "kCounterTable rows must follow the Counter enum");

/// One value per Counter.
class Counters {
 public:
  std::uint64_t operator[](Counter c) const {
    return values_[static_cast<std::size_t>(c)];
  }
  std::uint64_t& operator[](Counter c) {
    return values_[static_cast<std::size_t>(c)];
  }
  bool operator==(const Counters&) const = default;

 private:
  std::array<std::uint64_t, kCounterCount> values_{};
};

}  // namespace coincidence::sim
