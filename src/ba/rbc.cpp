#include "ba/rbc.h"

#include <algorithm>
#include <utility>

#include "common/errors.h"
#include "common/ser.h"

namespace coincidence::ba {

ReliableBroadcast::ReliableBroadcast(Config cfg, DeliverFn on_deliver)
    : cfg_(std::move(cfg)),
      on_deliver_(std::move(on_deliver)),
      tag_initial_(cfg_.tag + "/initial"),
      tag_echo_(cfg_.tag + "/echo"),
      tag_ready_(cfg_.tag + "/ready"),
      held_(cfg_.n),
      echoed_sources_(cfg_.n),
      delivered_(cfg_.n, false) {
  COIN_REQUIRE(cfg_.n > 3 * cfg_.f, "ReliableBroadcast: requires n > 3f");
}

std::uint64_t ReliableBroadcast::flow_key(sim::ProcessId source,
                                          const crypto::Digest& digest) {
  std::uint64_t fold = 0;
  for (std::size_t i = 0; i < 8; ++i)
    fold = (fold << 8) | digest[i];
  // FlatMap64 avalanches the key itself; mixing the source in with a
  // multiply keeps (source, digest) pairs distinct under the fold.
  return fold ^ (static_cast<std::uint64_t>(source) * 0x9e3779b97f4a7c15ull);
}

ReliableBroadcast::Flow& ReliableBroadcast::flow_of(
    sim::ProcessId source, const crypto::Digest& digest) {
  std::vector<Flow>& bucket = flows_[flow_key(source, digest)];
  for (Flow& flow : bucket)
    if (flow.source == source && flow.digest == digest) return flow;
  Flow& flow = bucket.emplace_back();
  flow.source = source;
  flow.digest = digest;
  flow.echoes = SenderSet(cfg_.n);
  flow.readies = SenderSet(cfg_.n);
  return flow;
}

ReliableBroadcast::Flow* ReliableBroadcast::held_flow(sim::ProcessId source,
                                                      BytesView payload) {
  for (const crypto::Digest& digest : held_[source]) {
    Flow& flow = flow_of(source, digest);
    if (std::equal(payload.begin(), payload.end(), flow.payload->begin(),
                   flow.payload->end()))
      return &flow;
  }
  return nullptr;
}

void ReliableBroadcast::broadcast(sim::Context& ctx, Bytes payload) {
  const std::size_t words = value_words(payload.size());
  ctx.broadcast(tag_initial_, std::move(payload), words);
}

void ReliableBroadcast::maybe_send_ready(sim::Context& ctx, Flow& flow) {
  if (flow.ready_sent) return;
  flow.ready_sent = true;
  Writer w;
  w.u32(flow.source);
  w.blob(BytesView(flow.digest.data(), flow.digest.size()));
  ctx.broadcast(tag_ready_, w.take(), 1 + kDigestWords);
}

void ReliableBroadcast::maybe_deliver(sim::Context& ctx, Flow& flow) {
  if (delivered_[flow.source]) return;  // one delivery per source
  if (flow.readies.size() < 2 * cfg_.f + 1) return;
  // Readies identify the value only by digest; the payload itself rides
  // in the echoes, and >(n−f)/2 ≥ f+1 correct processes echoed it to
  // everyone before any correct ready fired — it is en route.
  if (!flow.payload.has_value()) return;
  delivered_[flow.source] = true;
  ++delivered_count_;
  // RBC's output event: the delivered flow's source stands in for the
  // (binary) decision value of the BA protocols.
  ctx.note_decide(cfg_.tag, static_cast<int>(flow.source), 0);
  if (on_deliver_) on_deliver_(flow.source, *flow.payload);
}

bool ReliableBroadcast::handle(sim::Context& ctx, const sim::Message& msg) {
  if (msg.tag == tag_initial_) {
    // Echo once per source: the first initial wins; an equivocating
    // source simply fails to gather a quorum for either payload.
    if (echoed_sources_.insert(msg.from)) {
      Writer w;
      w.u32(msg.from).blob(msg.payload);
      ctx.broadcast(tag_echo_, w.take(),
                    value_words(msg.payload.size()) + 1);
    }
    return true;
  }

  bool is_echo = msg.tag == tag_echo_;
  bool is_ready = msg.tag == tag_ready_;
  if (!is_echo && !is_ready) return false;

  // `body` views the echoed payload or the ready's digest inside msg.
  sim::ProcessId source = 0;
  BytesView body;
  try {
    Reader r(msg.payload);
    source = r.u32();
    body = r.blob_view();
    r.done();
  } catch (const CodecError&) {
    return true;
  }
  if (source >= cfg_.n) return true;

  if (is_echo) {
    Flow* flow = held_flow(source, body);
    if (flow == nullptr) flow = &flow_of(source, crypto::sha256(body));
    if (!flow->echoes.insert(msg.from)) return true;
    if (!flow->payload.has_value()) {
      // First payload for this flow (possibly one readies created).
      flow->payload.emplace(body.begin(), body.end());
      held_[source].push_back(flow->digest);
    }
    if (2 * flow->echoes.size() > cfg_.n + cfg_.f)
      maybe_send_ready(ctx, *flow);
    maybe_deliver(ctx, *flow);  // a ready quorum may already be waiting
  } else {
    crypto::Digest digest{};
    if (body.size() != digest.size()) return true;
    std::copy(body.begin(), body.end(), digest.begin());
    Flow& flow = flow_of(source, digest);
    if (!flow.readies.insert(msg.from)) return true;
    if (flow.readies.size() >= cfg_.f + 1) maybe_send_ready(ctx, flow);
    maybe_deliver(ctx, flow);
  }
  return true;
}

}  // namespace coincidence::ba
