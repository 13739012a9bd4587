#include "ba/broadcast.h"

#include <algorithm>

#include "ba/rbc.h"
#include "ba/rbc_ec.h"
#include "common/errors.h"
#include "common/ser.h"

namespace coincidence::ba {

namespace {

std::uint64_t flow_key(sim::ProcessId source, const crypto::Digest& digest) {
  std::uint64_t fold = 0;
  for (std::size_t i = 0; i < 8; ++i) fold = (fold << 8) | digest[i];
  // FlatMap64 avalanches the key itself; mixing the source in with a
  // multiply keeps (source, digest) pairs distinct under the fold.
  return fold ^ (static_cast<std::uint64_t>(source) * 0x9e3779b97f4a7c15ull);
}

}  // namespace

template <class State>
QuorumBroadcast<State>::QuorumBroadcast(Config cfg, DeliverFn on_deliver)
    : cfg_(std::move(cfg)),
      echo_set_(cfg_.n, cfg_.f),
      tag_initial_(cfg_.tag + "/initial"),
      tag_echo_(cfg_.tag + "/echo"),
      tag_ready_(cfg_.tag + "/ready"),
      on_deliver_(std::move(on_deliver)),
      sources_(2, cfg_.n) {
  COIN_REQUIRE(cfg_.n > 3 * cfg_.f, "reliable broadcast: requires n > 3f");
}

template <class State>
auto QuorumBroadcast<State>::flow_of(sim::ProcessId source,
                                     const crypto::Digest& digest) -> Flow& {
  std::vector<Flow>& bucket = flows_[flow_key(source, digest)];
  for (Flow& flow : bucket)
    if (flow.source == source && flow.digest == digest) return flow;
  return bucket.emplace_back(source, digest, echo_set_.size());
}

template <class State>
bool QuorumBroadcast<State>::may_echo(const sim::Context& ctx,
                                      sim::ProcessId source) const {
  return echo_set_.contains(source, ctx.self()) &&
         !sources_.contains(kEchoedRow, source);
}

template <class State>
void QuorumBroadcast<State>::send_echo(sim::Context& ctx,
                                       sim::ProcessId source, Bytes wire,
                                       std::size_t words) {
  sources_.insert(kEchoedRow, source);
  ctx.broadcast(tag_echo_, std::move(wire), words);
}

template <class State>
bool QuorumBroadcast<State>::count_echo(sim::Context& ctx, Flow& flow,
                                        sim::ProcessId from) {
  if (!flow.senders.insert(kEchoRow, echo_set_.index(flow.source, from)))
    return false;
  ++flow.echoes;
  if (echo_set_.echo_quorum(flow.echoes)) maybe_send_ready(ctx, flow);
  return true;
}

template <class State>
auto QuorumBroadcast<State>::count_ready(sim::Context& ctx,
                                         const sim::Message& msg) -> Flow* {
  sim::ProcessId source = 0;
  BytesView digest_bytes;
  try {
    Reader r(msg.payload);
    source = r.u32();
    digest_bytes = r.blob_view();
    r.done();
  } catch (const CodecError&) {
    return nullptr;
  }
  crypto::Digest digest{};
  if (digest_bytes.size() != digest.size() ||
      !echo_set_.contains(source, msg.from))
    return nullptr;
  std::copy(digest_bytes.begin(), digest_bytes.end(), digest.begin());
  Flow& flow = flow_of(source, digest);
  if (!flow.senders.insert(kReadyRow, echo_set_.index(source, msg.from)))
    return nullptr;
  ++flow.readies;
  if (flow.readies >= cfg_.f + 1) maybe_send_ready(ctx, flow);
  return &flow;
}

template <class State>
bool QuorumBroadcast<State>::ready_quorum(const Flow& flow) const {
  return !delivered(flow.source) && flow.readies >= 2 * cfg_.f + 1;
}

template <class State>
void QuorumBroadcast<State>::deliver(sim::Context& ctx, sim::ProcessId source,
                                     const Bytes& payload) {
  sources_.insert(kDeliveredRow, source);
  ++delivered_count_;
  // RBC's output event: the delivered flow's source stands in for the
  // (binary) decision value of the BA protocols.
  ctx.note_decide(cfg_.tag, static_cast<int>(source), 0);
  if (on_deliver_) on_deliver_(source, payload);
}

template <class State>
void QuorumBroadcast<State>::maybe_send_ready(sim::Context& ctx, Flow& flow) {
  if (flow.ready_sent || !echo_set_.contains(flow.source, ctx.self())) return;
  flow.ready_sent = true;
  Writer w;
  w.u32(flow.source);
  w.blob(BytesView(flow.digest.data(), flow.digest.size()));
  ctx.broadcast(tag_ready_, w.take(), 1 + kDigestWords);
}

template class QuorumBroadcast<PayloadFlow>;
template class QuorumBroadcast<CodedFlow>;

const char* to_string(RbcBackend backend) {
  switch (backend) {
    case RbcBackend::kBracha: return "bracha";
    case RbcBackend::kEc: return "ec";
  }
  return "?";
}

std::optional<RbcBackend> parse_rbc_backend(std::string_view name) {
  if (name == "bracha") return RbcBackend::kBracha;
  if (name == "ec") return RbcBackend::kEc;
  return std::nullopt;
}

std::unique_ptr<Broadcast> make_broadcast(RbcBackend backend,
                                          Broadcast::Config cfg,
                                          Broadcast::DeliverFn on_deliver) {
  switch (backend) {
    case RbcBackend::kBracha:
      return std::make_unique<ReliableBroadcast>(std::move(cfg),
                                                 std::move(on_deliver));
    case RbcBackend::kEc:
      return std::make_unique<EcBroadcast>(std::move(cfg),
                                           std::move(on_deliver));
  }
  COIN_REQUIRE(false, "make_broadcast: unknown backend");
  return nullptr;
}

}  // namespace coincidence::ba
