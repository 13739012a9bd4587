// Deterministic discrete-event simulator for the asynchronous model of §2.
//
// One Simulation owns n processes, the in-flight message pool, the
// adversary, and the metrics. There is no global clock: the adversary
// picks the next delivery, subject to (a) eventual delivery — a fairness
// bound forces the oldest message through once it has been bypassed too
// often, modelling "every message is eventually delivered"; (b) the
// corruption budget f; (c) no-front-running — messages already in flight
// from a newly-corrupted process cannot be retracted; and (d) content-
// blindness for pending messages unless the illegal ablation mode is on.
//
// Everything is driven by one seeded Rng, so a run is a pure function of
// (processes, adversary, config) — every experiment is replayable.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "sim/adversary.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/flat_map64.h"
#include "sim/link.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "sim/observer.h"
#include "sim/pending_pool.h"
#include "sim/process.h"

namespace coincidence::sim {

struct SimConfig {
  std::size_t n = 4;
  std::size_t f = 0;  // corruption budget for the adversary
  std::uint64_t seed = 1;
  /// A pending message is force-delivered once it has been bypassed this
  /// many times (0 = default 16 * n). Models eventual delivery while
  /// leaving the adversary wide scheduling latitude.
  std::uint64_t fairness_bound = 0;
  /// ILLEGAL mode for the E6 ablation: feeds pending-message content to
  /// Adversary::observe_pending_content, violating delayed-adaptivity.
  bool allow_content_visibility = false;
  /// Hard stop against runaway protocols.
  std::uint64_t max_deliveries = 200'000'000;
  /// Lossy-link fault injection (sim/link.h). The default profile is
  /// reliable and draws no randomness, so legacy runs are unchanged.
  /// Link faults are driven by a dedicated Rng derived from `seed`
  /// (never the scheduling Rng), so enabling them does not perturb the
  /// adversary's or the processes' random streams.
  NetworkProfile network;
  /// Chaos orchestration schedule (sim/chaos.h): scripted partitions,
  /// churn waves and storm bursts executed on the delivery clock. Empty
  /// (the default) costs nothing; storm randomness burns a dedicated Rng
  /// like link faults, so schedules never perturb other streams.
  ChaosSchedule chaos;
  /// Sharded superstep engine (DESIGN.md §5g). 0 = the legacy sequential
  /// adversary-scheduled loop, byte-identical to prior releases. k >= 1
  /// partitions delivery work across k shards (receiver id mod k) and
  /// replaces the per-delivery adversary choice with a hash-addressed
  /// random-delay schedule: every message's delivery superstep and
  /// within-superstep rank are pure functions of (seed, route sequence),
  /// so the global delivery order — fingerprints, traces, metrics,
  /// decisions — is bit-identical for EVERY shard count and thread count.
  /// Scheduling adversaries (Adversary::schedule) are bypassed in this
  /// mode; corrupt_now/observe_delivery still fire.
  std::size_t shards = 0;
  /// Worker threads for the sharded engine, including the calling thread
  /// (0 = min(shards, hardware)). Never affects the schedule.
  std::size_t threads = 0;
  /// Superstep slack window W: a routed message is delivered 1..W
  /// supersteps after routing (hash-chosen). Larger W spreads a burst
  /// over more supersteps (more reordering latitude, smaller batches).
  std::uint64_t shard_slack = 4;
  /// Capacity hint: expected peak in-flight messages. Presizes the
  /// pending pool (legacy) or the shard calendars (sharded) so large-n
  /// runs do not rehash/regrow mid-flight. 0 = no reservation.
  std::size_t expected_in_flight = 0;
};

/// Per-shard telemetry of a sharded run (run_report surfaces this; it
/// never enters Metrics, whose exports must stay byte-identical across
/// shard counts).
struct ShardStats {
  std::uint64_t deliveries = 0;      // activations committed on this shard
  std::uint64_t handler_calls = 0;   // on_message invocations (incl. self)
  std::uint64_t idle_supersteps = 0; // supersteps this shard sat out
};

class Simulation {
 public:
  explicit Simulation(SimConfig cfg);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Adds the next process (ids are assigned 0..n-1 in call order).
  /// All n processes must be added before start().
  void add_process(std::unique_ptr<Process> p);

  /// Installs the adversary (default: RandomAdversary).
  void set_adversary(std::unique_ptr<Adversary> a);

  /// Attaches a passive observer (tracing / invariant checks). Multiple
  /// observers fire in attachment order.
  void add_observer(std::shared_ptr<Observer> observer);

  /// Corrupts `id` with the given behaviour. Counts against the budget f;
  /// throws PreconditionError when the budget is exhausted. Messages the
  /// process already sent stay in flight (no after-the-fact removal).
  void corrupt(ProcessId id, FaultPlan plan);

  bool is_corrupted(ProcessId id) const;
  std::size_t corrupted_count() const { return corrupted_count_; }

  /// True while a kCrashRecover process is down (crashed, not yet
  /// restarted). Down processes neither send nor receive.
  bool is_down(ProcessId id) const;

  /// True once a kCrashRecover process has restarted. It still counts
  /// against the corruption budget (the adversary spent it), but its
  /// behaviour is correct again from the restart on.
  bool has_recovered(ProcessId id) const;

  /// Adversary-crafted message from a corrupted process (must already be
  /// corrupted — correct processes cannot be impersonated, modelling
  /// authenticated links).
  void inject(ProcessId from, ProcessId to, Tag tag, SharedBytes payload,
              std::size_t words);

  /// Calls on_start on every process. Must be called exactly once.
  void start();

  /// Delivers one message; false when nothing is pending.
  bool step();

  /// Runs until quiescence (no pending messages) or max_deliveries.
  void run();

  /// Runs until pred() is true or quiescence/max_deliveries; returns the
  /// final pred() value.
  bool run_until(const std::function<bool()>& pred);

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  std::size_t n() const { return cfg_.n; }
  std::size_t f_budget() const { return cfg_.f; }
  std::uint64_t deliveries() const { return deliveries_; }
  bool has_pending() const {
    return sharded() ? calendar_size_ != 0 : !pending_.empty();
  }

  /// Protocol-visible access for the harness (e.g. to read decisions).
  Process& process(ProcessId id);

  /// Causal depth a process has observed (exposed for tests/metrics).
  std::uint64_t depth_of(ProcessId id) const;

  /// Whitebox view for the payload-aliasing regression tests: the replay
  /// ring recorded for the directed link from→to, or nullptr when that
  /// link has no history. Entries share the delivered payload buffers.
  const std::deque<Message>* replay_history_of(ProcessId from,
                                               ProcessId to) const;

  /// Messages currently buffered by an unhealed chaos partition. Must be
  /// zero at quiescence of a well-formed schedule — the "partitions
  /// eventually heal" invariant the checker asserts at run end.
  std::size_t chaos_held() const { return held_.size(); }

  /// Latest chaos phase begun (index into SimConfig::chaos.phases), or
  /// SIZE_MAX before the first phase / without a schedule. The repro
  /// triple's schedule-phase coordinate.
  std::size_t chaos_phase() const {
    return chaos_ ? chaos_->current_phase() : static_cast<std::size_t>(-1);
  }

  /// Sharded-engine introspection (all zero/empty on the legacy path).
  bool sharded() const { return cfg_.shards > 0; }
  std::size_t shard_count() const { return cfg_.shards; }
  std::uint64_t supersteps() const { return superstep_; }
  /// Total idle shard-supersteps at the exchange barrier: supersteps in
  /// which a shard had nothing to deliver while some other shard did —
  /// the deterministic load-imbalance measure run_report surfaces.
  std::uint64_t merge_stalls() const { return merge_stalls_; }
  const std::vector<ShardStats>& shard_stats() const { return shard_stats_; }

 private:
  struct Slot;       // per-process runtime state
  class SlotContext; // Context implementation bound to one slot
  struct PendingEffect;  // sharded engine: buffered handler side-effect
  struct CalEntry;       // sharded engine: one routed in-flight message
  struct ShardState;     // sharded engine: per-shard calendar + work list

  void dispatch_to(ProcessId to, const Message& msg);
  void drain_self_queue(ProcessId id);
  void enqueue_send(ProcessId from, ProcessId to, Tag tag,
                    SharedBytes payload, std::size_t words,
                    bool retransmit = false);
  void apply_corruptions();

  // Sharded superstep engine (DESIGN.md §5g). route_message is the one
  // funnel below the link layer: legacy pushes into the pending pool,
  // sharded inserts into a shard calendar at a hash-addressed superstep.
  bool superstep();
  void route_message(Message msg);
  void buffer_send(ProcessId from, ProcessId to, Tag tag,
                   SharedBytes payload, std::size_t words, bool retransmit);
  void run_shard_handlers(std::size_t shard);
  void deliver_in_phase(Slot& slot, const Message& msg);
  void commit_activation(CalEntry& act);
  std::size_t shard_of(ProcessId to) const { return to % cfg_.shards; }

  // Telemetry notes forwarded from SlotContext (Context::note_*): fan
  // out to Metrics and the observers. Pure observation — nothing here
  // touches scheduling state.
  void note_decide_from(ProcessId who, Tag scope, int value,
                        std::uint64_t round);
  void note_round_from(ProcessId who, std::uint64_t round);
  void note_dead_letter_from(ProcessId who, ProcessId to, Tag tag,
                             std::size_t words);

  // Lossy-link layer (sim/link.h), applied between enqueue and the pool.
  void push_through_link(Message msg);
  void remember_delivered(const Message& msg);

  // Delivery-event timers: process wakeups and crash-recover restarts.
  void schedule_wakeup_for(ProcessId id, std::uint64_t delay);
  void fire_due_timers();
  std::optional<std::uint64_t> next_timer_due() const;
  void recover_process(ProcessId id);

  // Chaos orchestration (sim/chaos.h): consume schedule events due now.
  void run_chaos_due();
  void churn_wave(std::size_t phase_idx);
  void release_partition(std::size_t phase_idx);

  SimConfig cfg_;
  Rng rng_;
  Rng link_rng_;  // dedicated stream: link faults never perturb scheduling
  Rng chaos_rng_;  // dedicated stream for storm bursts
  // Cached cfg_.network.reliable(): reliable runs (the common case) skip
  // the per-send link-plan lookup and the per-delivery history check.
  bool network_reliable_ = true;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::unique_ptr<Adversary> adversary_;
  std::vector<std::shared_ptr<Observer>> observers_;
  PendingPool pending_;
  Metrics metrics_;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t send_seq_ = 0;
  std::uint64_t deliveries_ = 0;
  std::size_t corrupted_count_ = 0;
  bool started_ = false;

  // Min-heaps over (due tick, insertion seq, process, wakeup epoch):
  // fire order is deterministic regardless of container internals. The
  // epoch invalidates wakeups scheduled before a crash — timers are
  // in-memory state and do not survive into a recovered incarnation.
  using TimerEntry =
      std::tuple<std::uint64_t, std::uint64_t, ProcessId, std::uint64_t>;
  using TimerHeap = std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                                        std::greater<TimerEntry>>;
  TimerHeap wakeups_;
  TimerHeap recoveries_;
  std::uint64_t timer_seq_ = 0;

  // Chaos runtime: the schedule cursor, cross-partition messages held
  // until their partition heals (tagged with the blocking phase), and
  // the per-churn-phase victim sets (chosen at the first wave, then
  // re-corrupted — budget-free — on every later wave).
  std::unique_ptr<ChaosState> chaos_;
  std::vector<std::pair<std::size_t, Message>> held_;
  std::vector<std::vector<ProcessId>> churn_victims_;

  // Per-link ring of recently delivered messages: replay candidates.
  // Keyed (from << 32 | to) on a flat hash; the Message copies stored
  // here share the delivered payload buffers (SharedBytes), so the
  // history's resident cost is O(window * header) per lossy link.
  FlatMap64<std::deque<Message>> replay_history_;

  // Sharded superstep engine state (cfg_.shards > 0; empty otherwise).
  // Calendars, the route counter and the per-superstep work lists live in
  // per-shard ShardStates; the pool runs the parallel sort/handler
  // phases; everything observable is emitted by the serial commit.
  std::vector<std::unique_ptr<ShardState>> shard_states_;
  std::unique_ptr<ThreadPool> shard_pool_;
  std::uint64_t shard_seed_ = 0;
  std::uint64_t route_seq_ = 0;       // canonical routing counter
  std::uint64_t superstep_ = 0;
  std::uint64_t calendar_size_ = 0;   // in-flight entries across shards
  std::vector<std::uint64_t> slot_counts_;  // per ring slot, across shards
  bool parallel_phase_ = false;       // handler phase: buffer effects
  std::uint64_t merge_stalls_ = 0;
  std::vector<ShardStats> shard_stats_;
};

}  // namespace coincidence::sim
