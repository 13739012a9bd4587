// Event-trace recording built on the Observer hooks: one JSON object per
// event, covering the full Observer surface — sends, deliveries, link
// drops/duplicates/replays, dead letters, decisions, round transitions,
// corruptions, recoveries — each stamped with the message's causal depth.
// Message records carry provenance: whether the copy was the fresh send,
// a retransmission, a link duplicate, or a stale replay. Tags are
// resolved to strings (TagIds never appear in output), so the JSONL
// stream is byte-identical across replays regardless of interning order
// (golden fingerprint tests hash it). The recorder keeps O(1) state per
// event, so a trace stays affordable at large n; `critical_path` reads
// the longest causal chain back out of the records by causal depth alone.
//
// Filter contract: `tag_filter` narrows *message traffic only* — send
// and deliver events. Fault events (corrupt, drop, dead letter, decide,
// round, ...) are always recorded: their `tag`/`mode` fields hold fault
// or scope names, not message tags, and a filtered trace that silently
// dropped corruptions would make fault accounting lie.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/flat_map64.h"
#include "sim/observer.h"

namespace coincidence::sim {

struct TraceOptions {
  /// Records only send/deliver events whose tag contains this substring
  /// (empty = all). Never applied to fault/decision events — see the
  /// filter contract above.
  std::string tag_filter;
};

class TraceRecorder final : public Observer {
 public:
  /// How the delivered (or lost) copy of a message came to exist.
  enum class Prov { kFresh, kRetransmit, kDuplicate, kReplay };

  /// One trace record. Field use depends on kind; unused fields keep
  /// their defaults and are omitted from the JSONL line.
  struct Rec {
    enum class Kind {
      kSend,
      kDeliver,
      kDrop,
      kDuplicate,
      kReplay,
      kDeadLetter,
      kCorrupt,
      kRecover,
      kDecide,
      kRound,
    };
    Kind kind;
    std::uint64_t msg_id = 0;
    std::uint64_t send_seq = 0;
    ProcessId from = 0;  // reporter for decide/round/corrupt/recover
    ProcessId to = 0;
    std::string tag;  // message tag / decide scope / fault mode
    std::size_t words = 0;
    std::uint64_t depth = 0;  // causal depth (messages and decides)
    std::uint64_t round = 0;  // decide/round events
    int value = 0;            // decide events
    bool correct = true;
    Prov prov = Prov::kFresh;
  };

  explicit TraceRecorder(TraceOptions opts = {});

  void on_send(const Message& msg, bool sender_correct) override;
  void on_deliver(const Message& msg) override;
  void on_corrupt(ProcessId target, const FaultPlan& plan) override;
  void on_recover(ProcessId target) override;
  void on_link_drop(const Message& msg) override;
  void on_link_duplicate(const Message& msg) override;
  void on_link_replay(const Message& msg) override;
  void on_dead_letter(ProcessId from, ProcessId to, const Tag& tag,
                      std::size_t words) override;
  void on_decide(const DecideEvent& event) override;
  void on_round(ProcessId who, std::uint64_t round) override;

  const std::vector<Rec>& records() const { return records_; }

  /// JSONL dump of the records: one JSON object per line, deterministic
  /// byte-for-byte for a fixed (config, seed).
  void dump_jsonl(std::ostream& os) const;

 private:
  bool passes_filter(const Message& msg) const;
  void record_message(Rec::Kind kind, const Message& msg, bool correct,
                      Prov prov);

  std::string tag_filter_;
  std::vector<Rec> records_;
  FlatMap64<std::uint8_t> copy_prov_;  // msg id -> Prov of link copies
};

/// Name of a fault mode, for traces and test diagnostics.
const char* fault_mode_name(FaultPlan::Mode mode);

/// One hop of the reconstructed critical path.
struct Hop {
  ProcessId from = 0;
  ProcessId to = 0;
  std::string tag;
  std::uint64_t depth = 0;
};

/// Reconstructs the longest causal message chain from the trace records:
/// start at the deepest deliver event, then repeatedly step to what
/// raised the sender to one depth less before it sent: a delivery to it
/// (the legacy loop records a step's delivery after the sends of its
/// handler), or else, since self-deliveries leave no deliver event, the
/// sender's latest earlier self-send at that depth. The chain then has
/// one hop per depth level; it is a suffix only when the trace lacks
/// earlier records (a tag filter).
std::vector<Hop> critical_path(const std::vector<TraceRecorder::Rec>& recs);

}  // namespace coincidence::sim
