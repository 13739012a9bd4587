#include "sim/simulation.h"

#include <algorithm>

#include "common/errors.h"
#include "common/write_sink.h"

namespace coincidence::sim {

namespace {
/// replay_history_ key: one u64 per directed link.
std::uint64_t link_key(ProcessId from, ProcessId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

/// splitmix64 finalizer: the sharded engine's hash-addressed randomness.
/// Every scheduling decision is mix64(seed ^ counter) of a counter that
/// advances in canonical (serial-commit) order, never a stream whose
/// draw order could depend on shard or thread count.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

// ------------------------------------------------------------- effects --

/// One side effect a handler caused. Appended to the running activation's
/// effect buffer and applied by commit_effects in the exact order the
/// handler issued it — on both engines and in every serial callback.
struct Simulation::Effect {
  enum class Kind : std::uint8_t {
    kSend,
    kWakeup,
    kDecide,
    kRound,
    kDeadLetter,
    kCount,
  };
  Kind kind = Kind::kSend;
  bool retransmit = false;
  bool self = false;    // send to self: delivered inside the activation
  bool correct = true;  // sender/reporter was uncorrupted at call time
  ProcessId to = 0;
  Tag tag;
  SharedBytes payload;
  // kSend: a=words b=causal_depth; kWakeup: a=delay; kDecide: a=round
  // b=value c=depth; kRound: a=round; kDeadLetter: a=words; kCount:
  // a=Counter b=n.
  std::uint64_t a = 0, b = 0, c = 0;
};

// ------------------------------------------------- sharded engine data --

/// One routed in-flight message in a shard calendar. (okey, route_seq) is
/// the canonical within-superstep rank — a pure function of (seed, route
/// order), so the merged delivery order is shard/thread-count invariant.
struct Simulation::CalEntry {
  std::uint64_t okey = 0;
  std::uint64_t route_seq = 0;
  std::uint64_t enqueue_index = 0;  // deliveries_ at routing (age basis)
  std::uint64_t delivery_pre = 0;   // deliveries_ just before this commit
  Message msg;
  // The activation's effects: [effects_begin, effects_end) of its
  // shard's effect buffer.
  std::size_t effects_begin = 0;
  std::size_t effects_end = 0;
};

/// Per-shard runtime: the calendar ring (slot s holds entries due at
/// supersteps congruent to s mod W), the current superstep's work, and
/// the effect buffer its activations append to in rank order. Every
/// buffer keeps its capacity across supersteps, so once they have grown
/// the engine allocates nothing per superstep, and a handler thread
/// writes only its own shard's state.
struct Simulation::ShardState {
  std::vector<std::vector<CalEntry>> ring;
  std::vector<CalEntry> acts;
  std::vector<Effect> effects;
  WriteSink writes;  // run-wide cache writes of this shard's handlers
  ShardStats stats;
};

// ---------------------------------------------------------------- Slot --

struct Simulation::Slot {
  std::unique_ptr<Process> process;
  std::unique_ptr<SlotContext> context;
  Rng rng{0};
  FaultPlan fault;            // kCorrect until corrupted
  bool corrupted = false;
  bool recovered = false;     // kCrashRecover process that restarted
  std::uint64_t wakeup_epoch = 0;  // bumped on crash: stale timers die
  std::uint64_t depth = 0;    // causal depth observed so far
  std::deque<Message> self_queue;
  Bytes stable_storage;       // survives kCrashRecover (Context::persist)
  // The running activation: the effect buffer it appends to and the
  // delivery clock its handlers read through now(). Only the
  // activation's own thread (the slot's home shard, on the sharded
  // engine) touches them.
  std::vector<Effect>* effects = nullptr;
  std::uint64_t now = 0;

  /// Crash semantics apply: a kCrash process forever, a kCrashRecover
  /// process until its restart flips the mode back to kCorrect.
  bool crash_like() const {
    return fault.mode == FaultPlan::Mode::kCrash ||
           fault.mode == FaultPlan::Mode::kCrashRecover;
  }

  /// Hands `msg` to the process's on_message, raising its causal depth.
  void deliver(const Message& msg);

  /// Appends a blank effect of `kind` to the running activation,
  /// pre-stamping the reporter's correctness at call time.
  Effect& record(Effect::Kind kind) {
    COIN_REQUIRE(effects != nullptr, "Context used outside a callback");
    Effect& e = effects->emplace_back();
    e.kind = kind;
    e.correct = !corrupted;
    return e;
  }
};

/// Context for one slot. Every side effect is recorded on the slot's
/// running activation; nothing here touches the world directly.
class Simulation::SlotContext final : public Context {
 public:
  SlotContext(Simulation* sim, ProcessId id) : sim_(sim), id_(id) {}

  ProcessId self() const override { return id_; }
  std::size_t n() const override { return sim_->cfg_.n; }

  void send(ProcessId to, Tag tag, SharedBytes payload,
            std::size_t words) override {
    sim_->record_send(id_, to, tag, std::move(payload), words,
                      /*retransmit=*/false);
  }

  void broadcast(Tag tag, SharedBytes payload, std::size_t words) override {
    // Each recorded copy shares `payload`'s buffer: n refcount bumps,
    // zero deep copies.
    for (ProcessId to = 0; to < sim_->cfg_.n; ++to)
      sim_->record_send(id_, to, tag, payload, words, /*retransmit=*/false);
  }

  void send_retransmission(ProcessId to, Tag tag, SharedBytes payload,
                           std::size_t words) override {
    sim_->record_send(id_, to, tag, std::move(payload), words,
                      /*retransmit=*/true);
  }

  Rng& rng() override { return slot().rng; }

  std::uint64_t causal_depth() const override { return slot().depth; }

  std::uint64_t now() const override { return slot().now; }

  void schedule_wakeup(std::uint64_t delay) override {
    slot().record(Effect::Kind::kWakeup).a = delay;
  }

  void persist(BytesView snapshot) override {
    slot().stable_storage.assign(snapshot.begin(), snapshot.end());
  }

  void note_decide(Tag scope, int value, std::uint64_t round) override {
    Slot& s = slot();
    Effect& e = s.record(Effect::Kind::kDecide);
    e.tag = scope;
    e.a = round;
    e.b = static_cast<std::uint64_t>(static_cast<std::int64_t>(value));
    e.c = s.depth;  // depth at the call, not at commit
  }

  void note_round(std::uint64_t round) override {
    slot().record(Effect::Kind::kRound).a = round;
  }

  void note_dead_letter(ProcessId to, Tag tag, std::size_t words) override {
    Effect& e = slot().record(Effect::Kind::kDeadLetter);
    e.to = to;
    e.tag = tag;
    e.a = words;
  }

  void count(Counter c, std::uint64_t n) override {
    if (n == 0) return;
    Effect& e = slot().record(Effect::Kind::kCount);
    e.a = static_cast<std::uint64_t>(c);
    e.b = n;
  }

 private:
  Slot& slot() const { return *sim_->slots_[id_]; }

  Simulation* sim_;
  ProcessId id_;
};

void Simulation::Slot::deliver(const Message& msg) {
  depth = std::max(depth, msg.causal_depth);
  process->on_message(*context, msg);
}

// ---------------------------------------------------------- Simulation --

// The link Rng's seed is derived (not forked) from cfg.seed so that the
// scheduling stream and the per-process forks are byte-identical to a
// run without link faults — enabling a NetworkProfile must not change
// anything else about the run.
Simulation::Simulation(SimConfig cfg)
    : cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      link_rng_(cfg_.seed ^ 0x6c696e6b5f726e67ULL),
      chaos_rng_(cfg_.seed ^ 0x6368616f73726e67ULL),
      network_reliable_(cfg_.network.reliable()) {
  COIN_REQUIRE(cfg_.n > 0, "Simulation needs at least one process");
  if (cfg_.fairness_bound == 0) cfg_.fairness_bound = 16 * cfg_.n;
  adversary_ = std::make_unique<RandomAdversary>();
  slots_.reserve(cfg_.n);
  if (!cfg_.chaos.empty()) {
    chaos_ = std::make_unique<ChaosState>(cfg_.chaos);
    churn_victims_.resize(cfg_.chaos.phases.size());
  }
  if (cfg_.shards > 0) {
    // More shards than processes would leave permanently-empty shards;
    // the clamp keeps shard_of() total without changing any schedule
    // (the schedule depends on (seed, route order), not the shard map).
    cfg_.shards = std::min(cfg_.shards, cfg_.n);
    shard_seed_ = mix64(cfg_.seed ^ 0x73686172645f7373ULL);  // "shard_ss"
    shard_states_.reserve(cfg_.shards);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      auto st = std::make_unique<ShardState>();
      st->ring.resize(kShardSlack);
      shard_states_.push_back(std::move(st));
    }
    slot_counts_.assign(kShardSlack, 0);
    const std::size_t in_flight = cfg_.expected_in_flight > 0
                                      ? cfg_.expected_in_flight
                                      : 16 * cfg_.n;
    const std::size_t per_slot = in_flight / (cfg_.shards * kShardSlack) + 1;
    for (auto& st : shard_states_)
      for (auto& slot : st->ring) slot.reserve(per_slot);
    std::size_t threads = cfg_.threads;
    if (threads == 0) threads = std::min(cfg_.shards, default_thread_count());
    shard_pool_ = std::make_unique<ThreadPool>(threads);
  } else if (cfg_.expected_in_flight > 0) {
    pending_.reserve(cfg_.expected_in_flight);
  }
}

Simulation::~Simulation() = default;

void Simulation::add_process(std::unique_ptr<Process> p) {
  COIN_REQUIRE(!started_, "add_process after start");
  COIN_REQUIRE(slots_.size() < cfg_.n, "too many processes");
  auto id = static_cast<ProcessId>(slots_.size());
  auto slot = std::make_unique<Slot>();
  slot->process = std::move(p);
  slot->context = std::make_unique<SlotContext>(this, id);
  slot->rng = rng_.fork();
  slots_.push_back(std::move(slot));
}

void Simulation::set_adversary(std::unique_ptr<Adversary> a) {
  COIN_REQUIRE(a != nullptr, "null adversary");
  adversary_ = std::move(a);
}

void Simulation::add_observer(std::shared_ptr<Observer> observer) {
  COIN_REQUIRE(observer != nullptr, "null observer");
  observers_.push_back(std::move(observer));
}

void Simulation::corrupt(ProcessId id, FaultPlan plan) {
  COIN_REQUIRE(id < slots_.size(), "corrupt: bad id");
  Slot& slot = *slots_[id];
  const bool fresh = !slot.corrupted;
  if (fresh) {
    COIN_REQUIRE(corrupted_count_ < cfg_.f,
                 "adversary corruption budget f exhausted");
    slot.corrupted = true;
    ++corrupted_count_;
  }
  slot.fault = std::move(plan);  // re-corruption just updates the behaviour
  if (slot.crash_like()) ++slot.wakeup_epoch;  // pending timers are lost
  if (slot.fault.mode == FaultPlan::Mode::kCrashRecover) {
    slot.recovered = false;
    recoveries_.push({deliveries_ + slot.fault.recover_after, timer_seq_++,
                      id, slot.wakeup_epoch});
  }
  if (!fresh) return;
  for (auto& obs : observers_) obs->on_corrupt(id, slot.fault);
  if (started_) {
    run_serial(id, /*drain_self=*/false,
               [&] { slot.process->on_corrupt(*slot.context); });
  }
}

bool Simulation::is_corrupted(ProcessId id) const {
  COIN_REQUIRE(id < slots_.size(), "is_corrupted: bad id");
  return slots_[id]->corrupted;
}

bool Simulation::is_down(ProcessId id) const {
  COIN_REQUIRE(id < slots_.size(), "is_down: bad id");
  return slots_[id]->fault.mode == FaultPlan::Mode::kCrashRecover;
}

bool Simulation::has_recovered(ProcessId id) const {
  COIN_REQUIRE(id < slots_.size(), "has_recovered: bad id");
  return slots_[id]->recovered;
}

Process& Simulation::process(ProcessId id) {
  COIN_REQUIRE(id < slots_.size(), "process: bad id");
  return *slots_[id]->process;
}

std::vector<ShardStats> Simulation::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shard_states_.size());
  for (const auto& st : shard_states_) out.push_back(st->stats);
  return out;
}

std::uint64_t Simulation::depth_of(ProcessId id) const {
  COIN_REQUIRE(id < slots_.size(), "depth_of: bad id");
  return slots_[id]->depth;
}

// ------------------------------------------------------- effect path --

template <class Handler>
std::size_t Simulation::activate(Slot& slot, std::vector<Effect>& effects,
                                 std::uint64_t now, bool drain_self,
                                 Handler&& handler) {
  slot.effects = &effects;
  slot.now = now;
  handler();
  std::size_t calls = 1;
  // Self-sends are free local deliveries, run after the handler returns
  // (no reentrancy) and inside the same activation.
  while (drain_self && !slot.self_queue.empty()) {
    if (slot.corrupted && slot.crash_like()) {
      slot.self_queue.clear();  // in-memory queue: lost in the crash
      break;
    }
    Message msg = std::move(slot.self_queue.front());
    slot.self_queue.pop_front();
    slot.deliver(msg);
    ++calls;
  }
  slot.effects = nullptr;
  return calls;
}

// A serial activation commits as soon as its handlers return. The effect
// list is borrowed from serial_effects_ so the hot legacy loop reuses one
// buffer; a nested serial activation (an observer corrupting a process
// mid-commit) finds it taken and uses a fresh one.
template <class Handler>
void Simulation::run_serial(ProcessId id, bool drain_self,
                            Handler&& handler) {
  std::vector<Effect> effects = std::move(serial_effects_);
  activate(*slots_[id], effects, deliveries_, drain_self, handler);
  commit_effects(id, effects);
  effects.clear();
  serial_effects_ = std::move(effects);
}

void Simulation::record_send(ProcessId from, ProcessId to, Tag tag,
                             SharedBytes payload, std::size_t words,
                             bool retransmit) {
  COIN_REQUIRE(to < cfg_.n, "send: bad destination");
  Slot& sender = *slots_[from];

  // The sender's fault behaviour applies when the send is recorded: junk
  // bytes come from the sender's own rng, interleaved with the handler's
  // draws, and only the sender's slot is touched.
  if (sender.corrupted) {
    switch (sender.fault.mode) {
      case FaultPlan::Mode::kCrash:
      case FaultPlan::Mode::kCrashRecover:  // down: nothing leaves
      case FaultPlan::Mode::kSilent:
        return;  // nothing leaves a crashed/silent process
      case FaultPlan::Mode::kSelective: {
        const auto& t = sender.fault.selective_targets;
        if (std::find(t.begin(), t.end(), to) == t.end()) return;
        break;
      }
      case FaultPlan::Mode::kJunk:
        // Fresh junk per destination (broadcast fan-out reaches here once
        // per receiver), exactly as the pre-shared-payload substrate drew.
        payload = SharedBytes(sender.rng.next_bytes(payload.size()));
        break;
      case FaultPlan::Mode::kCorrect:
        break;
    }
  }

  Effect& e = sender.record(Effect::Kind::kSend);
  e.retransmit = retransmit;
  e.self = (to == from);
  e.to = to;
  e.tag = tag;
  e.a = words;
  e.b = sender.depth + 1;
  if (e.self) {
    // Delivered from the self queue once the current handler returns. id
    // and send_seq stay 0 — the canonical values exist only at commit,
    // and no protocol reads them; the send event carries the real ones.
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.tag = tag;
    msg.payload = payload;
    msg.words = words;
    msg.causal_depth = e.b;
    msg.retransmit = retransmit;
    sender.self_queue.push_back(std::move(msg));
  }
  e.payload = std::move(payload);
}

// The §2 measures only count events at correct processes, so Metrics see
// a decision only when the reporter was correct at the call; observers
// see everything, with the DecideEvent.correct flag carrying the
// distinction.
void Simulation::commit_effects(ProcessId who, std::span<Effect> effects) {
  for (Effect& e : effects) {
    switch (e.kind) {
      case Effect::Kind::kSend: {
        Message m;
        m.id = next_msg_id_++;
        m.from = who;
        m.to = e.to;
        m.tag = e.tag;
        m.payload = std::move(e.payload);
        m.words = static_cast<std::size_t>(e.a);
        m.causal_depth = e.b;
        m.send_seq = send_seq_++;
        m.retransmit = e.retransmit;
        metrics_.record_send(m, e.correct);
        for (auto& obs : observers_) obs->on_send(m, e.correct);
        if (cfg_.allow_content_visibility)
          adversary_->observe_pending_content(m);
        // Self copies never transit the network: the activation
        // delivers them from the self queue.
        if (!e.self) push_through_link(std::move(m));
        break;
      }
      case Effect::Kind::kWakeup:
        // deliveries_ here equals the activation's now().
        wakeups_.push({deliveries_ + e.a, timer_seq_++, who,
                       slots_[who]->wakeup_epoch});
        break;
      case Effect::Kind::kDecide: {
        if (e.correct) metrics_.record_decide(e.a, e.c);
        if (!observers_.empty()) {
          DecideEvent ev;
          ev.who = who;
          ev.scope = e.tag;
          ev.value = static_cast<int>(static_cast<std::int64_t>(e.b));
          ev.round = e.a;
          ev.causal_depth = e.c;
          ev.correct = e.correct;
          for (auto& obs : observers_) obs->on_decide(ev);
        }
        break;
      }
      case Effect::Kind::kRound:
        for (auto& obs : observers_) obs->on_round(who, e.a);
        break;
      case Effect::Kind::kDeadLetter:
        metrics_.count(Counter::kDeadLetters, 1);
        metrics_.count(Counter::kDeadLetterWords, e.a);
        for (auto& obs : observers_)
          obs->on_dead_letter(who, e.to, e.tag, static_cast<std::size_t>(e.a));
        break;
      case Effect::Kind::kCount:
        metrics_.count(static_cast<Counter>(e.a), e.b);
        break;
    }
  }
}

// A delivery's own events. The legacy loop runs the receiver's activation
// between begin_delivery and end_delivery, so its sends precede
// on_deliver; the sharded engine commits an activation's effects after
// end_delivery.
void Simulation::begin_delivery(const Message& msg, std::uint64_t age,
                                bool forced_by_fairness) {
  if (!observers_.empty()) {
    MessageMeta meta;
    meta.id = msg.id;
    meta.from = msg.from;
    meta.to = msg.to;
    meta.tag = msg.tag;
    meta.words = msg.words;
    meta.send_seq = msg.send_seq;
    meta.age = age;
    for (auto& obs : observers_)
      obs->on_adversary_choice(meta, forced_by_fairness);
  }
  ++deliveries_;
  metrics_.record_delivery(msg, age);
}

void Simulation::end_delivery(const Message& msg) {
  remember_delivered(msg);
  for (auto& obs : observers_) obs->on_deliver(msg);
  adversary_->observe_delivery(msg);
}

// The lossy-link layer sits between the send event and the pending pool:
// the send already happened (metrics/observers above saw it — the sender
// paid its word cost), but the substrate may lose the packet, enqueue
// extra copies, or belch up a stale packet from the same link's past.
// Every draw comes from link_rng_, and only for links whose plan is not
// reliable, so (a) runs are replayable and (b) reliable runs are
// byte-identical to pre-link-fault behaviour.
void Simulation::push_through_link(Message msg) {
  // Chaos partition gate: an active partition intercepts cross-group
  // traffic before any link-plan randomness is drawn. Held messages skip
  // the link layer entirely and re-enter the pool verbatim at heal time
  // (they "traversed" the link once; the partition only delayed them).
  if (chaos_ && chaos_->any_active_partition()) {
    ChaosPhase::PartitionMode mode = ChaosPhase::PartitionMode::kHold;
    std::size_t phase = 0;
    if (chaos_->blocked(msg.from, msg.to, &mode, &phase)) {
      if (mode == ChaosPhase::PartitionMode::kHold) {
        metrics_.count(Counter::kPartitionHeld, 1);
        metrics_.count(Counter::kPartitionHeldWords, msg.words);
        for (auto& obs : observers_) obs->on_partition_block(msg, true);
        held_.emplace_back(phase, std::move(msg));
      } else {
        metrics_.count(Counter::kPartitionDropped, 1);
        metrics_.count(Counter::kPartitionDroppedWords, msg.words);
        for (auto& obs : observers_) obs->on_partition_block(msg, false);
      }
      return;
    }
  }

  // Chaos storm burst: congestion-style amplification, drawn from the
  // dedicated chaos Rng so storms never perturb link or scheduling
  // streams. Copies are network-created (like link duplicates) and
  // charge no words to anyone.
  if (chaos_) {
    if (std::optional<std::size_t> storm = chaos_->active_storm()) {
      const ChaosPhase& p = chaos_->schedule().phases[*storm];
      if (p.storm_p > 0.0 && chaos_rng_.next_bool(p.storm_p)) {
        std::size_t copies = 1;
        if (p.storm_copies > 1)
          copies += static_cast<std::size_t>(
              chaos_rng_.next_below(p.storm_copies));
        for (std::size_t i = 0; i < copies; ++i) {
          Message dup = msg;
          dup.id = next_msg_id_++;
          metrics_.count(Counter::kStormCopies, 1);
          route_message(std::move(dup));
        }
      }
    }
  }

  // Fully-reliable networks (the common case) skip the per-link plan
  // lookup entirely — one cached bool instead of a hash probe per send.
  if (network_reliable_) {
    route_message(std::move(msg));
    return;
  }
  const LinkPlan& plan = cfg_.network.link(msg.from, msg.to);
  if (plan.reliable()) {
    route_message(std::move(msg));
    return;
  }

  if (plan.drop_p > 0.0 && link_rng_.next_bool(plan.drop_p)) {
    metrics_.count(Counter::kLinkDrops, 1);
    metrics_.count(Counter::kLinkDroppedWords, msg.words);
    for (auto& obs : observers_) obs->on_link_drop(msg);
  } else {
    std::size_t copies = 0;
    if (plan.dup_p > 0.0 && link_rng_.next_bool(plan.dup_p)) {
      copies = 1;
      if (plan.max_duplicates > 1)
        copies += static_cast<std::size_t>(
            link_rng_.next_below(plan.max_duplicates));
    }
    for (std::size_t i = 0; i < copies; ++i) {
      Message dup = msg;
      dup.id = next_msg_id_++;
      metrics_.count(Counter::kLinkDuplicates, 1);
      for (auto& obs : observers_) obs->on_link_duplicate(dup);
      route_message(std::move(dup));
    }
    route_message(std::move(msg));
  }

  // Replay is keyed to send *activity* on the link, not to this packet's
  // fate: a dropped fresh packet can still shake loose a stale one.
  if (plan.replay_p > 0.0 && link_rng_.next_bool(plan.replay_p)) {
    const std::deque<Message>* history =
        replay_history_.find(link_key(msg.from, msg.to));
    if (history != nullptr && !history->empty()) {
      // The replayed copy aliases the original payload buffer.
      Message replay =
          (*history)[static_cast<std::size_t>(
              link_rng_.next_below(history->size()))];
      replay.id = next_msg_id_++;
      metrics_.count(Counter::kLinkReplays, 1);
      for (auto& obs : observers_) obs->on_link_replay(replay);
      route_message(std::move(replay));
    }
  }
}

const std::deque<Message>* Simulation::replay_history_of(ProcessId from,
                                                         ProcessId to) const {
  return replay_history_.find(link_key(from, to));
}

void Simulation::remember_delivered(const Message& msg) {
  if (network_reliable_) return;
  const LinkPlan& plan = cfg_.network.link(msg.from, msg.to);
  if (plan.replay_p <= 0.0 || plan.replay_window == 0) return;
  // The stored copy shares msg's payload buffer, so the history holds
  // O(window) headers per link, not O(window) payload clones.
  auto& history = replay_history_[link_key(msg.from, msg.to)];
  history.push_back(msg);
  while (history.size() > plan.replay_window) history.pop_front();
}

void Simulation::inject(ProcessId from, ProcessId to, Tag tag,
                        SharedBytes payload, std::size_t words) {
  COIN_REQUIRE(from < slots_.size() && to < cfg_.n, "inject: bad ids");
  COIN_REQUIRE(slots_[from]->corrupted,
               "inject: only corrupted processes can be impersonated");
  Message msg;
  msg.id = next_msg_id_++;
  msg.from = from;
  msg.to = to;
  msg.tag = tag;
  msg.payload = std::move(payload);
  msg.words = words;
  msg.causal_depth = slots_[from]->depth + 1;
  msg.send_seq = send_seq_++;
  metrics_.record_send(msg, /*sender_correct=*/false);
  for (auto& obs : observers_) obs->on_send(msg, false);
  if (to == from) {
    slots_[from]->self_queue.push_back(std::move(msg));
  } else {
    route_message(std::move(msg));
  }
}

// ----------------------------------------------------- timers/recovery --

std::optional<std::uint64_t> Simulation::next_timer_due() const {
  std::optional<std::uint64_t> due;
  if (!wakeups_.empty()) due = std::get<0>(wakeups_.top());
  if (!recoveries_.empty()) {
    std::uint64_t r = std::get<0>(recoveries_.top());
    if (!due || r < *due) due = r;
  }
  // Chaos events participate in idle advance: a heal (or churn wave)
  // must fire even when nothing is in flight — otherwise a drained
  // network would strand held messages behind a partition forever.
  if (chaos_) {
    std::optional<std::uint64_t> c = chaos_->next_event_at();
    if (c && (!due || *c < *due)) due = c;
  }
  return due;
}

void Simulation::recover_process(ProcessId id) {
  Slot& slot = *slots_[id];
  // A re-corruption may have replaced the crash-recover plan (e.g. with a
  // permanent crash) while the restart was pending; the stale timer then
  // must not resurrect the process.
  if (slot.fault.mode != FaultPlan::Mode::kCrashRecover) return;
  slot.fault.mode = FaultPlan::Mode::kCorrect;
  slot.recovered = true;
  run_serial(id, /*drain_self=*/true, [&] {
    slot.process->on_recover(*slot.context, slot.stable_storage);
  });
  for (auto& obs : observers_) obs->on_recover(id);
}

void Simulation::fire_due_timers() {
  // Restarts first: a process whose wakeup and restart are both due
  // should come back before (not instead of) seeing the wakeup dropped.
  while (!recoveries_.empty() &&
         std::get<0>(recoveries_.top()) <= deliveries_) {
    ProcessId id = std::get<2>(recoveries_.top());
    recoveries_.pop();
    recover_process(id);
  }
  while (!wakeups_.empty() && std::get<0>(wakeups_.top()) <= deliveries_) {
    const ProcessId id = std::get<2>(wakeups_.top());
    const std::uint64_t epoch = std::get<3>(wakeups_.top());
    wakeups_.pop();
    Slot& slot = *slots_[id];
    if (epoch != slot.wakeup_epoch) continue;  // pre-crash timer
    if (slot.corrupted && slot.crash_like()) continue;  // down right now
    run_serial(id, /*drain_self=*/true,
               [&] { slot.process->on_wakeup(*slot.context); });
  }
}

// ------------------------------------------------------------- chaos --

void Simulation::run_chaos_due() {
  if (!chaos_) return;
  while (std::optional<ChaosEvent> ev = chaos_->pop_due(deliveries_)) {
    const ChaosPhase& phase = chaos_->schedule().phases[ev->phase];
    switch (ev->kind) {
      case ChaosEvent::Kind::kPhaseBegin:
        for (auto& obs : observers_)
          obs->on_chaos_phase(ev->phase, phase.kind_name(), true,
                              deliveries_);
        break;
      case ChaosEvent::Kind::kChurnWave:
        churn_wave(ev->phase);
        break;
      case ChaosEvent::Kind::kPhaseEnd:
        if (phase.kind == ChaosPhase::Kind::kPartition)
          release_partition(ev->phase);
        for (auto& obs : observers_)
          obs->on_chaos_phase(ev->phase, phase.kind_name(), false,
                              deliveries_);
        break;
    }
  }
}

void Simulation::churn_wave(std::size_t phase_idx) {
  const ChaosPhase& phase = chaos_->schedule().phases[phase_idx];
  std::vector<ProcessId>& victims = churn_victims_[phase_idx];
  if (victims.empty()) {
    // First wave: claim the highest not-yet-corrupted ids. The runner's
    // static fault mix occupies the very top, so churn lands directly
    // below it; later waves cycle this same set, which re-corruption
    // makes budget-free.
    for (ProcessId id = static_cast<ProcessId>(cfg_.n);
         id > 0 && victims.size() < phase.churn_victims;) {
      --id;
      if (!slots_[id]->corrupted) victims.push_back(id);
    }
  }
  for (ProcessId id : victims) {
    Slot& slot = *slots_[id];
    // Skip victims that are still down (a wave must not extend a crash
    // already in progress) or that the adversary meanwhile repurposed
    // with a non-recovering behaviour — churn must never *heal* a
    // corruption it does not own.
    if (slot.corrupted && slot.fault.mode != FaultPlan::Mode::kCorrect)
      continue;
    // Fresh corruptions respect the budget like adversary requests do.
    if (!slot.corrupted && corrupted_count_ >= cfg_.f) continue;
    metrics_.count(Counter::kChurnCrashes, 1);
    corrupt(id, FaultPlan::crash_recover(phase.churn_down));
  }
}

void Simulation::release_partition(std::size_t phase_idx) {
  if (held_.empty()) return;
  std::vector<std::pair<std::size_t, Message>> kept;
  kept.reserve(held_.size());
  std::size_t released = 0;
  for (auto& entry : held_) {
    if (entry.first == phase_idx) {
      // Healed: the message re-enters the pool now, with a fresh enqueue
      // tick — its fairness clock starts at the heal, not at the
      // original send (the partition, not the adversary, delayed it).
      route_message(std::move(entry.second));
      ++released;
    } else {
      kept.push_back(std::move(entry));
    }
  }
  held_.swap(kept);
  metrics_.count(Counter::kPartitionReleased, released);
}

void Simulation::apply_corruptions() {
  for (auto& req : adversary_->corrupt_now(rng_)) {
    if (req.target >= slots_.size()) continue;
    if (slots_[req.target]->corrupted) continue;
    if (corrupted_count_ >= cfg_.f) break;  // budget exhausted: ignore
    corrupt(req.target, std::move(req.plan));
  }
}

void Simulation::start() {
  COIN_REQUIRE(!started_, "start called twice");
  COIN_REQUIRE(slots_.size() == cfg_.n, "start: missing processes");
  started_ = true;
  apply_corruptions();
  run_chaos_due();  // phases starting at tick 0 fire before on_start
  // Every process starts before any self-send is delivered.
  for (ProcessId id = 0; id < slots_.size(); ++id) {
    Slot& slot = *slots_[id];
    if (slot.corrupted && slot.crash_like()) continue;
    run_serial(id, /*drain_self=*/false,
               [&] { slot.process->on_start(*slot.context); });
  }
  for (ProcessId id = 0; id < slots_.size(); ++id)
    run_serial(id, /*drain_self=*/true, [] {});
}

bool Simulation::step() {
  COIN_REQUIRE(started_, "step before start");
  if (sharded()) return superstep();
  fire_due_timers();
  run_chaos_due();

  if (pending_.empty()) {
    // Idle network. If a wakeup, restart or chaos event is scheduled,
    // advance "time" straight to it (deliveries are the only clock;
    // nothing else can move it while no message is in flight). Its
    // callback may enqueue new sends — retransmissions typically do —
    // and a heal releases held messages, so this revives runs a pure
    // drop-fault or unhealed partition would otherwise strand.
    auto due = next_timer_due();
    if (!due) return false;
    if (*due >= cfg_.max_deliveries)
      throw ConfigError("Simulation: max_deliveries exceeded (livelock?)");
    deliveries_ = std::max(deliveries_, *due);
    fire_due_timers();
    run_chaos_due();
    return true;
  }

  if (deliveries_ >= cfg_.max_deliveries)
    throw ConfigError("Simulation: max_deliveries exceeded (livelock?)");

  apply_corruptions();

  // Fairness override: the oldest message must go through once bypassed
  // fairness_bound times; otherwise the adversary chooses freely. The
  // cheap tick lower bound screens out the common case — if even the
  // stalest heap entry is too young, the precise (stale-popping) oldest
  // lookup cannot trigger either, so it is skipped entirely.
  std::size_t chosen = static_cast<std::size_t>(-1);
  bool forced_by_fairness = false;
  if (deliveries_ - pending_.oldest_tick_lower_bound() >=
      cfg_.fairness_bound) {
    std::size_t oldest = pending_.oldest_index();
    if (deliveries_ - pending_.enqueue_tick(oldest) >= cfg_.fairness_bound) {
      chosen = oldest;
      forced_by_fairness = true;
    }
  }
  if (chosen == static_cast<std::size_t>(-1)) {
    chosen = adversary_->schedule(pending_, rng_);
    COIN_REQUIRE(chosen < pending_.size(), "adversary chose bad index");
  }

  const std::uint64_t age = deliveries_ - pending_.enqueue_tick(chosen);
  Message msg = pending_.take(chosen);

  begin_delivery(msg, age, forced_by_fairness);
  Slot& receiver = *slots_[msg.to];
  if (!(receiver.corrupted && receiver.crash_like())) {
    run_serial(msg.to, /*drain_self=*/true, [&] { receiver.deliver(msg); });
  }
  end_delivery(msg);
  return true;
}

// ------------------------------------------- sharded superstep engine --
//
// The sharded engine replaces the per-delivery adversary choice with a
// hash-addressed random-delay schedule: at routing time (always serial —
// a commit, of a serial callback or of the superstep) each message draws h = mix64(shard_seed ^ route_seq) and is placed at
// superstep `now + 1 + h % W` with within-superstep rank mix64(h). Both
// are pure functions of (seed, canonical route order), so the merged
// global delivery order is bit-identical for every shard count and
// thread count. A superstep then runs in four phases:
//   1. barrier work (timers, chaos, corruption requests) — serial;
//   2. exchange: pull the due calendar slot per shard, sort by rank —
//      parallel, pure;
//   3. handlers: each shard runs its activations in rank order, each
//      appending its effects to the shard's effect buffer and keeping
//      its [begin, end) range — parallel, shard-local state only; the
//      run-wide caches are read-only, and their writes queue on the
//      shard's WriteSink, drained in shard order after the phase;
//   4. commit: each delivery's events, then commit_effects, in the
//      globally merged rank order — serial.
// Fairness is structural here (nothing waits more than W supersteps), so
// the fairness-bound scan and Adversary::schedule are bypassed.

void Simulation::route_message(Message msg) {
  if (!sharded()) {
    pending_.push(std::move(msg), deliveries_);
    return;
  }
  const std::uint64_t h = mix64(shard_seed_ ^ route_seq_);
  const std::size_t shard = shard_of(msg.to);
  CalEntry e;
  e.okey = mix64(h);
  e.route_seq = route_seq_++;
  e.enqueue_index = deliveries_;
  e.msg = std::move(msg);
  const auto slot =
      static_cast<std::size_t>((superstep_ + 1 + h % kShardSlack) %
                               kShardSlack);
  shard_states_[shard]->ring[slot].push_back(std::move(e));
  ++slot_counts_[slot];
  ++calendar_size_;
}

void Simulation::run_shard_handlers(std::size_t shard) {
  ShardState& st = *shard_states_[shard];
  const WriteSink::Scope deferred(st.writes);
  std::uint64_t handler_calls = 0;
  for (CalEntry& act : st.acts) {
    Slot& receiver = *slots_[act.msg.to];
    act.effects_begin = st.effects.size();
    if (!(receiver.corrupted && receiver.crash_like())) {
      // The legacy loop increments deliveries_ before dispatching, so a
      // handler sees "my delivery's index + 1"; delivery_pre is exactly
      // that index under the canonical merge order.
      handler_calls +=
          activate(receiver, st.effects, act.delivery_pre + 1,
                   /*drain_self=*/true, [&] { receiver.deliver(act.msg); });
    }
    act.effects_end = st.effects.size();
  }
  st.stats.handler_calls += handler_calls;
  st.stats.deliveries += st.acts.size();
}

bool Simulation::superstep() {
  fire_due_timers();
  run_chaos_due();

  if (calendar_size_ == 0) {
    // Idle network: advance the delivery clock straight to the next
    // timer/chaos event, exactly like the legacy idle path.
    auto due = next_timer_due();
    if (!due) return false;
    if (*due >= cfg_.max_deliveries)
      throw ConfigError("Simulation: max_deliveries exceeded (livelock?)");
    deliveries_ = std::max(deliveries_, *due);
    fire_due_timers();
    run_chaos_due();
    return true;
  }

  if (deliveries_ >= cfg_.max_deliveries)
    throw ConfigError("Simulation: max_deliveries exceeded (livelock?)");

  apply_corruptions();

  // Advance to the next superstep with work. Every in-flight entry is at
  // most W supersteps out, so this scans at most W ring slots.
  do {
    ++superstep_;
  } while (slot_counts_[static_cast<std::size_t>(
               superstep_ % kShardSlack)] == 0);
  const auto slot =
      static_cast<std::size_t>(superstep_ % kShardSlack);

  // Phase 2 — exchange: move the due slot into each shard's work list
  // and sort by the canonical (okey, route_seq) rank, in parallel. Idle
  // shards (nothing due while another shard has work) are the
  // deterministic load-imbalance signal run_report surfaces.
  std::size_t busy = 0;
  for (const auto& st : shard_states_)
    if (!st->ring[slot].empty()) ++busy;
  if (busy < cfg_.shards) {
    for (auto& st : shard_states_) {
      if (st->ring[slot].empty()) {
        ++st->stats.idle_supersteps;
        ++merge_stalls_;
      }
    }
  }
  shard_pool_->for_each_index(cfg_.shards, [&](std::size_t s) {
    ShardState& st = *shard_states_[s];
    // acts is empty here; the swap hands its capacity to the ring slot.
    st.acts.swap(st.ring[slot]);
    std::sort(st.acts.begin(), st.acts.end(),
              [](const CalEntry& a, const CalEntry& b) {
                return a.okey != b.okey ? a.okey < b.okey
                                        : a.route_seq < b.route_seq;
              });
  });

  // Merge: assign each activation its global delivery index (the rank in
  // the k-way merge of the sorted shard lists) and remember the commit
  // order. Runs before the handlers so now()/delivery_pre are available
  // inside them.
  std::size_t total = 0;
  for (const auto& st : shard_states_) total += st->acts.size();
  calendar_size_ -= total;
  slot_counts_[slot] = 0;
  auto& order = merge_order_;
  auto& cursor = merge_cursor_;
  order.clear();
  cursor.assign(cfg_.shards, 0);
  for (std::size_t k = 0; k < total; ++k) {
    std::size_t best = static_cast<std::size_t>(-1);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      if (cursor[s] >= shard_states_[s]->acts.size()) continue;
      if (best == static_cast<std::size_t>(-1)) {
        best = s;
        continue;
      }
      const CalEntry& a = shard_states_[s]->acts[cursor[s]];
      const CalEntry& b = shard_states_[best]->acts[cursor[best]];
      if (a.okey < b.okey ||
          (a.okey == b.okey && a.route_seq < b.route_seq))
        best = s;
    }
    CalEntry& act = shard_states_[best]->acts[cursor[best]];
    act.delivery_pre = deliveries_ + k;
    order.emplace_back(best, cursor[best]);
    ++cursor[best];
  }

  // Phase 3 — handlers, in parallel; effects recorded, cache writes queued.
  shard_pool_->for_each_index(
      cfg_.shards, [this](std::size_t s) { run_shard_handlers(s); });
  for (auto& st : shard_states_) st->writes.drain();

  // Phase 4 — serial commit in the merged canonical order. The
  // hash-addressed schedule's "choice" is never forced by fairness
  // (delay is structurally bounded by W).
  for (const auto& [s, i] : order) {
    ShardState& st = *shard_states_[s];
    CalEntry& act = st.acts[i];
    begin_delivery(act.msg, act.delivery_pre - act.enqueue_index,
                   /*forced_by_fairness=*/false);
    end_delivery(act.msg);
    commit_effects(act.msg.to,
                   std::span<Effect>(st.effects).subspan(
                       act.effects_begin, act.effects_end - act.effects_begin));
  }
  for (auto& st : shard_states_) {
    st->acts.clear();
    st->effects.clear();
  }
  return true;
}

void Simulation::run() {
  while (step()) {
  }
}

bool Simulation::run_until(const std::function<bool()>& pred) {
  if (pred()) return true;
  while (step()) {
    if (pred()) return true;
  }
  return pred();
}

}  // namespace coincidence::sim
