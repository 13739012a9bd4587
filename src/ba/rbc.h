// Bracha's reliable broadcast (Information & Computation 1987) — the
// classic echo/ready primitive, n > 3f:
//
//   source:            broadcast <initial, m>
//   on <initial, m>:   broadcast <echo, src, m>          (once per source)
//   on <echo, src, m>  from > (n+f)/2 distinct: broadcast <ready, src, H(m)>
//   on <ready, src, h> from f+1 distinct:       broadcast <ready, src, h>
//   on <ready, src, h> from 2f+1 distinct:      deliver (src, m)
//
// Guarantees: if the source is correct everyone delivers its m; if any
// correct process delivers (src, m), every correct process delivers
// (src, m) and nobody delivers (src, m') with m' != m. Used as the
// broadcast layer of the Bracha BA baseline and independently tested.
//
// ISSUE 10 satellite: READY carries the λ-word sha256 digest of the
// payload instead of re-shipping it (the payload still travels in every
// ECHO, which is what makes this backend O(n²·|v|) — rbc_ec.h is the
// coded alternative), and flows are tallied in a FlatMap64 keyed by a
// 64-bit fold of (source, digest) instead of a std::map that copied the
// whole payload into its keys. Delivery waits for both the 2f+1 ready
// quorum and a payload-bearing echo: readies alone no longer identify
// the value. Word ledger, exact: initial = 1+⌈|m|/8⌉, echo = initial+1
// (source word), ready = 1+λ.
//
// Each distinct echo value is hashed once per process, not once per
// echoer: an echo whose bytes equal a payload this process already holds
// for that source reuses that flow's digest, and only a miss runs
// sha256. The payload is parsed as a view and copied only when a flow
// first stores it. Flow identity stays (source, sha256(payload)), so
// the quorums, and every message sent, are what hashing each echo gave.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ba/broadcast.h"
#include "common/bytes.h"
#include "crypto/sha256.h"
#include "sim/flat_map64.h"
#include "sim/process.h"

namespace coincidence::ba {

class ReliableBroadcast final : public Broadcast {
 public:
  using Config = Broadcast::Config;

  ReliableBroadcast(Config cfg, DeliverFn on_deliver);

  void broadcast(sim::Context& ctx, Bytes payload) override;
  bool handle(sim::Context& ctx, const sim::Message& msg) override;

  bool delivered(sim::ProcessId source) const override {
    return source < delivered_.size() && delivered_[source];
  }
  std::size_t delivered_count() const override { return delivered_count_; }

 private:
  // Per (source, payload-digest) echo/ready tallies. Byzantine sources
  // may equivocate, producing several live flows for one source; the
  // delivery guard ensures at most one wins. Flows bucket under a 64-bit
  // key fold; the full digest disambiguates fold collisions.
  struct Flow {
    sim::ProcessId source = 0;
    crypto::Digest digest{};
    // Learned from the first payload-bearing echo (readies only carry
    // the digest). Delivery waits for it.
    std::optional<Bytes> payload;
    SenderSet echoes;
    SenderSet readies;
    bool ready_sent = false;
  };

  static std::uint64_t flow_key(sim::ProcessId source,
                                const crypto::Digest& digest);
  Flow& flow_of(sim::ProcessId source, const crypto::Digest& digest);
  /// The flow of `source` whose stored payload equals `payload`, if any.
  Flow* held_flow(sim::ProcessId source, BytesView payload);

  void maybe_send_ready(sim::Context& ctx, Flow& flow);
  void maybe_deliver(sim::Context& ctx, Flow& flow);

  Config cfg_;
  DeliverFn on_deliver_;
  // Interned once at construction; handle() matches by integer id.
  sim::Tag tag_initial_;
  sim::Tag tag_echo_;
  sim::Tag tag_ready_;

  sim::FlatMap64<std::vector<Flow>> flows_;
  // Per source: digests of its flows that hold a payload (one for a
  // correct source; more only under equivocation or forged echoes).
  std::vector<std::vector<crypto::Digest>> held_;
  SenderSet echoed_sources_;  // echo once per source
  std::vector<bool> delivered_;
  std::size_t delivered_count_ = 0;
};

}  // namespace coincidence::ba
