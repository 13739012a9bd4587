#include "ba/rbc.h"

#include <algorithm>
#include <utility>

#include "common/errors.h"
#include "common/ser.h"
#include "common/shared_bytes.h"

namespace coincidence::ba {

ReliableBroadcast::ReliableBroadcast(Config cfg, DeliverFn on_deliver)
    : QuorumBroadcast(std::move(cfg), std::move(on_deliver)),
      held_(cfg_.n) {}

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
  const SharedBytes shared(std::move(payload));
  for (std::size_t j = 0; j < echo_set_.size(); ++j)
    ctx.send(echo_set_.member(ctx.self(), j), tag_initial_, shared, words);
}

bool ReliableBroadcast::handle(sim::Context& ctx, const sim::Message& msg) {
  if (msg.tag == tag_initial_) {
    // Members echo once per source: the first initial wins; an
    // equivocating source simply fails to gather a quorum for either
    // payload.
    if (may_echo(ctx, msg.from)) {
      Writer w;
      w.u32(msg.from).blob(msg.payload);
      send_echo(ctx, msg.from, w.take(), value_words(msg.payload.size()) + 1);
    }
  } else if (msg.tag == tag_echo_) {
    handle_echo(ctx, msg);
  } else if (msg.tag == tag_ready_) {
    if (Flow* flow = count_ready(ctx, msg)) maybe_deliver(ctx, *flow);
  } else {
    return false;
  }
  return true;
}

void ReliableBroadcast::handle_echo(sim::Context& ctx,
                                    const sim::Message& msg) {
  sim::ProcessId source = 0;
  BytesView payload;  // views msg.payload
  try {
    Reader r(msg.payload);
    source = r.u32();
    payload = r.blob_view();
    r.done();
  } catch (const CodecError&) {
    return;
  }
  // Only E(source)'s echoes count toward its quorums.
  if (!echo_set_.contains(source, msg.from)) return;
  Flow* flow = held_flow(source, payload);
  if (flow == nullptr) flow = &flow_of(source, crypto::sha256(payload));
  if (!count_echo(ctx, *flow, msg.from)) return;
  if (!flow->payload.has_value()) {
    // First payload for this flow (possibly one readies created).
    flow->payload.emplace(payload.begin(), payload.end());
    held_[source].push_back(flow->digest);
  }
  maybe_deliver(ctx, *flow);  // a ready quorum may already be waiting
}

void ReliableBroadcast::maybe_deliver(sim::Context& ctx, Flow& flow) {
  // Readies identify the value only by digest; the payload itself rides
  // in the echoes, and >(m−f)/2 ≥ f+1 correct members echoed it to
  // everyone before any correct ready fired — it is en route.
  if (ready_quorum(flow) && flow.payload.has_value())
    deliver(ctx, flow.source, *flow.payload);
}

}  // namespace coincidence::ba
