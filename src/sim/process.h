// Protocol-facing runtime interface.
//
// A Process is an event-driven state machine: on_start fires once, then
// on_message for every delivered message. All interaction with the world
// goes through Context, which the simulation implements. Protocol code
// never sees the scheduler, the adversary, or other processes' state —
// exactly the asynchronous message-passing model of the paper.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"
#include "sim/counters.h"
#include "sim/message.h"

namespace coincidence::sim {

class Context {
 public:
  virtual ~Context() = default;

  virtual ProcessId self() const = 0;
  virtual std::size_t n() const = 0;

  /// Point-to-point send. `words` is the paper word count of the message.
  /// Sending to self is free on the wire but still dispatched (after the
  /// current callback returns, to avoid reentrancy). Tag and SharedBytes
  /// convert implicitly from std::string/Bytes; hot paths pass cached
  /// Tag values and hand the payload over once.
  virtual void send(ProcessId to, Tag tag, SharedBytes payload,
                    std::size_t words) = 0;

  /// Send to all n processes (including self). Word metering charges
  /// n * words, matching the paper's "send to all processes" accounting.
  /// The payload buffer is shared across all n enqueued copies.
  virtual void broadcast(Tag tag, SharedBytes payload,
                         std::size_t words) = 0;

  /// A send that repeats an earlier payload to repair link loss (used by
  /// net::ReliableChannel). Identical on the wire, but Metrics attribute
  /// its words to the retransmission-overhead bucket, keeping the §2
  /// word-complexity measure comparable across lossy and reliable runs.
  /// Default: an ordinary send (for harness Contexts without metering).
  virtual void send_retransmission(ProcessId to, Tag tag,
                                   SharedBytes payload, std::size_t words) {
    send(to, tag, std::move(payload), words);
  }

  /// Per-process deterministic randomness (local coins, Ben-Or baseline).
  virtual Rng& rng() = 0;

  /// Current causal depth observed by this process.
  virtual std::uint64_t causal_depth() const = 0;

  /// Global delivery count — the simulator's only notion of elapsed
  /// "time". Protocols must not branch on it (it is scheduler-dependent);
  /// it exists so transport-level backoff (net::ReliableChannel) can be
  /// expressed in delivery-events. Default for harness Contexts: 0.
  virtual std::uint64_t now() const { return 0; }

  /// Requests an on_wakeup callback once `delay` further deliveries have
  /// occurred (fires even if the network drains first — the runtime
  /// advances idle "time" to the next due wakeup). Wakeups are lost if
  /// the process crashes. Default: ignored (harness Contexts).
  virtual void schedule_wakeup(std::uint64_t delay) { (void)delay; }

  /// Writes `snapshot` to this process's stable storage, overwriting any
  /// previous snapshot. Stable storage survives kCrashRecover faults and
  /// is handed back via Process::on_recover. Default: dropped.
  virtual void persist(BytesView snapshot) { (void)snapshot; }

  // --- Telemetry notes (ISSUE 4). Pure observability: the runtime fans
  // these out to Observers and Metrics; they never influence scheduling,
  // randomness, or message flow, so instrumented and bare runs are
  // byte-identical. Defaults are no-ops for harness Contexts.

  /// This process (or a sub-protocol it hosts) produced an output: a BA
  /// decision, a coin value, an approver value set, an RBC delivery.
  /// `scope` is the reporting instance's tag prefix, `round` its round.
  virtual void note_decide(Tag scope, int value, std::uint64_t round) {
    (void)scope;
    (void)value;
    (void)round;
  }

  /// This process entered protocol round `round`.
  virtual void note_round(std::uint64_t round) { (void)round; }

  /// A transport on this process abandoned a frame addressed to `to`
  /// after exhausting its retransmission budget — the payload is lost
  /// and must be accounted, never silently dropped.
  virtual void note_dead_letter(ProcessId to, Tag tag, std::size_t words) {
    (void)to;
    (void)tag;
    (void)words;
  }

  /// Adds `n` to run counter `c` (sim/counters.h): work that is not
  /// words, such as share/signature verification batches and
  /// Reed–Solomon coding passes.
  virtual void count(Counter c, std::uint64_t n) {
    (void)c;
    (void)n;
  }
};

class Process {
 public:
  virtual ~Process() = default;

  virtual void on_start(Context& ctx) = 0;
  virtual void on_message(Context& ctx, const Message& msg) = 0;

  /// Invoked when the adversary corrupts this process. Default: nothing —
  /// the runtime-level FaultPlan already controls the visible behaviour.
  virtual void on_corrupt(Context& /*ctx*/) {}

  /// A wakeup requested via Context::schedule_wakeup came due. A single
  /// callback serves all outstanding requests at or before now().
  virtual void on_wakeup(Context& /*ctx*/) {}

  /// A kCrashRecover process restarting. `snapshot` is the last blob the
  /// process passed to Context::persist (empty if it never persisted).
  /// Contract: the implementation must treat its in-memory state as lost
  /// — reset everything and rebuild only from `snapshot`; anything else
  /// simulates RAM surviving a power cycle. Default: nothing (the
  /// process rejoins as a passive participant with stale state; safe for
  /// quorum protocols whose handlers are idempotent, but it may never
  /// decide).
  virtual void on_recover(Context& /*ctx*/, const Bytes& /*snapshot*/) {}
};

}  // namespace coincidence::sim
