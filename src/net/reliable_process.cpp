#include "net/reliable_process.h"

#include <utility>

#include "common/errors.h"

namespace coincidence::net {

// The Context handed to the inner process: identical to the outer one
// except that non-self sends are framed through the ReliableChannel.
class ReliableProcess::ChannelContext final : public sim::Context {
 public:
  explicit ChannelContext(ReliableProcess* host) : host_(host) {}

  sim::ProcessId self() const override { return outer().self(); }
  std::size_t n() const override { return outer().n(); }

  void send(sim::ProcessId to, sim::Tag tag, SharedBytes payload,
            std::size_t words) override {
    if (to == self()) {
      // The self-queue never drops or duplicates; framing it would only
      // add a useless ack round-trip.
      outer().send(to, tag, std::move(payload), words);
      return;
    }
    host_->channel_.send(outer(), to, tag, std::move(payload), words);
  }

  void broadcast(sim::Tag tag, SharedBytes payload,
                 std::size_t words) override {
    for (sim::ProcessId to = 0; to < n(); ++to) {
      send(to, tag, payload, words);
    }
  }

  Rng& rng() override { return outer().rng(); }
  std::uint64_t causal_depth() const override {
    return outer().causal_depth();
  }
  std::uint64_t now() const override { return outer().now(); }
  void schedule_wakeup(std::uint64_t delay) override {
    outer().schedule_wakeup(delay);
  }
  void persist(BytesView snapshot) override { outer().persist(snapshot); }

  // Telemetry notes pass straight through — the channel is invisible to
  // the decide/round accounting of the wrapped protocol.
  void note_decide(sim::Tag scope, int value, std::uint64_t round) override {
    outer().note_decide(scope, value, round);
  }
  void note_round(std::uint64_t round) override { outer().note_round(round); }
  void note_dead_letter(sim::ProcessId to, sim::Tag tag,
                        std::size_t words) override {
    outer().note_dead_letter(to, tag, words);
  }
  void count(sim::Counter c, std::uint64_t n) override {
    outer().count(c, n);
  }

 private:
  sim::Context& outer() const {
    COIN_REQUIRE(host_->outer_ != nullptr,
                 "ChannelContext used outside a callback");
    return *host_->outer_;
  }

  ReliableProcess* host_;
};

ReliableProcess::ReliableProcess(std::unique_ptr<sim::Process> inner,
                                 ReliableChannelConfig cfg)
    : inner_(std::move(inner)),
      channel_(std::move(cfg),
               [this](sim::ProcessId from, sim::Tag tag, SharedBytes payload,
                      std::size_t words) {
                 sim::Message unwrapped;
                 unwrapped.from = from;
                 unwrapped.to = outer_->self();
                 unwrapped.tag = tag;
                 unwrapped.payload = std::move(payload);
                 unwrapped.words = words;
                 unwrapped.causal_depth = outer_->causal_depth();
                 inner_->on_message(*shim_, unwrapped);
               }),
      shim_(std::make_unique<ChannelContext>(this)) {
  COIN_REQUIRE(inner_ != nullptr, "ReliableProcess needs an inner process");
}

ReliableProcess::~ReliableProcess() = default;

void ReliableProcess::on_start(sim::Context& ctx) {
  outer_ = &ctx;
  inner_->on_start(*shim_);
}

void ReliableProcess::on_message(sim::Context& ctx, const sim::Message& msg) {
  outer_ = &ctx;
  if (channel_.handle(ctx, msg)) return;
  // Not a channel frame: a direct send (self-queue bypass, or traffic
  // from an unwrapped/Byzantine peer). Deliver as-is — the inner
  // protocol's own dedup must cope, exactly as on a raw network.
  inner_->on_message(*shim_, msg);
}

void ReliableProcess::on_wakeup(sim::Context& ctx) {
  outer_ = &ctx;
  channel_.on_wakeup(ctx);
  inner_->on_wakeup(*shim_);
}

void ReliableProcess::on_corrupt(sim::Context& ctx) {
  outer_ = &ctx;
  inner_->on_corrupt(*shim_);
}

void ReliableProcess::on_recover(sim::Context& ctx, const Bytes& snapshot) {
  outer_ = &ctx;
  channel_.reset();  // in-memory transport state did not survive
  inner_->on_recover(*shim_, snapshot);
}

}  // namespace coincidence::net
