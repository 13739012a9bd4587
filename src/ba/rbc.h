// Bracha's reliable broadcast (Information & Computation 1987) — the
// classic echo/ready primitive, n > 3f — run inside the source's echo
// set E of m = min(n, 3f + 1) processes (broadcast.h, EchoSet):
//
//   source:            send <initial, v> to E
//   member, on <initial, v>:  broadcast <echo, src, v>   (once per source)
//
// and from there the quorum core of broadcast.h (QuorumBroadcast) over
// flows (src, sha256(v)): readies at the echo quorum and at f + 1, and
// delivery at 2f + 1 member readies once a payload-bearing echo for the
// flow has arrived. With m = n this is the textbook protocol, message
// for message. Used as the broadcast layer of the Bracha BA baseline and
// independently tested.
//
// A ready carries the λ-word digest of the payload, not the payload, so
// readies alone do not identify the value: delivery waits for both the
// 2f+1 ready quorum and a payload-bearing echo. The payload travels in
// every echo, which is what makes this backend O(m·n·|v|) = O(f·n·|v|)
// (rbc_ec.h is the coded alternative). Word ledger, exact: initial =
// 1+⌈|v|/8⌉ to each of the m members and echo = initial+1 (source word),
// sent by the m members to all n.
//
// Each distinct echo value is hashed once per process, not once per
// echoer: an echo whose bytes equal a payload this process already holds
// for that source reuses that flow's digest, and only a miss runs
// sha256. The payload is parsed as a view and copied only when a flow
// first stores it. Flow identity stays (source, sha256(payload)), so
// the quorums, and every message sent, are what hashing each echo gave.
#pragma once

#include <optional>
#include <vector>

#include "ba/broadcast.h"
#include "common/bytes.h"
#include "crypto/sha256.h"
#include "sim/process.h"

namespace coincidence::ba {

/// What a Bracha flow holds besides its tallies.
struct PayloadFlow {
  // Learned from the first payload-bearing echo (readies only carry the
  // digest). Delivery waits for it.
  std::optional<Bytes> payload;
};

class ReliableBroadcast final : public QuorumBroadcast<PayloadFlow> {
 public:
  ReliableBroadcast(Config cfg, DeliverFn on_deliver);

  void broadcast(sim::Context& ctx, Bytes payload) override;
  bool handle(sim::Context& ctx, const sim::Message& msg) override;

 private:
  /// The flow of `source` whose stored payload equals `payload`, if any.
  Flow* held_flow(sim::ProcessId source, BytesView payload);
  void handle_echo(sim::Context& ctx, const sim::Message& msg);
  void maybe_deliver(sim::Context& ctx, Flow& flow);

  // Per source: digests of its flows that hold a payload (one for a
  // correct source; more only under equivocation or forged echoes).
  std::vector<std::vector<crypto::Digest>> held_;
};

}  // namespace coincidence::ba
