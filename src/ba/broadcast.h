// Reliable-broadcast abstraction (ISSUE 10 tentpole).
//
// Both dissemination backends — Bracha's echo/ready protocol (rbc.h) and
// the AVID-M-style erasure-coded protocol (rbc_ec.h) — present the same
// surface: one broadcast per source per instance, deliver-once per
// source, agreement (no two correct processes deliver different payloads
// for one source) and totality (one correct delivery drags everyone
// else's). MultiValuedBa, the Bracha BA baseline, the replicated log and
// the run drivers program against this interface and pick the backend
// per run (RbcBackend), so every harness — chaos plane, golden traces,
// shard determinism — exercises both.
//
// Each source's broadcast runs inside its echo set E (EchoSet below) of
// m = min(n, 3f + 1) processes: only they receive the initial and echo
// and ready, to all n. A broadcast therefore sends m initials and 2·m·n
// echoes and readies instead of n + 2·n², and its word ledger is
// O(f·n·|v|) under Bracha (O(n·|v| + f·n·λ·log f) coded).
//
// The backends differ only in what an initial and an echo carry and in
// when a payload is known; from the echoes on, both run Bracha's quorums
// through one core, QuorumBroadcast below.
//
// Word accounting lives inside the backends: each computes its own exact
// wire words from the payload it actually ships (a value v counts
// 1 + ⌈|v|/8⌉ words, a sha256 digest λ = 4 words), keeping the §2 ledger
// honest without callers guessing foreign-flow sizes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/sender_rows.h"
#include "crypto/sha256.h"
#include "sim/flat_map64.h"
#include "sim/process.h"

namespace coincidence::crypto {
class VerdictMemo;
}  // namespace coincidence::crypto

namespace coincidence::ba {

/// Words charged for a broadcast value: one header word plus the payload
/// in 8-byte words (an empty value is still one word on the wire).
inline std::size_t value_words(std::size_t bytes) {
  return 1 + (bytes + 7) / 8;
}

/// λ: a sha256 digest in 8-byte words.
inline constexpr std::size_t kDigestWords = 4;

/// The echo set E(s) of source s's broadcast: the m = min(n, 3f + 1) ids
/// from s upward, wrapping past n − 1, taken in id order. Only members
/// get s's initial, echo and ready; everyone hears their echoes and
/// readies. At most f members are faulty and m ≥ 3f + 1, so Bracha's
/// quorums drawn inside E keep their deterministic guarantees: an echo
/// quorum > (m + f)/2, amplification at f + 1 and delivery at 2f + 1
/// member readies. With m = n, E(s) is every process in id order.
class EchoSet {
 public:
  EchoSet(std::size_t n, std::size_t f)
      : n_(n), m_(std::min(n, 3 * f + 1)), f_(f) {}

  std::size_t size() const { return m_; }

  bool contains(sim::ProcessId source, sim::ProcessId p) const {
    return source < n_ && p < n_ && (p + n_ - source) % n_ < m_;
  }
  /// Member p's position in E(source) in id order (its fragment and
  /// Merkle leaf in the coded backend); requires contains(source, p).
  std::size_t index(sim::ProcessId source, sim::ProcessId p) const {
    const std::size_t wrapped = wrapped_ids(source);
    return p < wrapped ? p : wrapped + (p - source);
  }
  /// The member at position j of E(source).
  sim::ProcessId member(sim::ProcessId source, std::size_t j) const {
    const std::size_t wrapped = wrapped_ids(source);
    return static_cast<sim::ProcessId>(j < wrapped ? j
                                                   : source + (j - wrapped));
  }

  bool echo_quorum(std::size_t echoes) const { return 2 * echoes > m_ + f_; }

 private:
  /// Members below the source: the window's part past n − 1.
  std::size_t wrapped_ids(sim::ProcessId source) const {
    return source + m_ > n_ ? source + m_ - n_ : 0;
  }

  std::size_t n_;
  std::size_t m_;
  std::size_t f_;
};

class Broadcast {
 public:
  struct Config {
    std::string tag;  // instance namespace; one broadcast per source in it
    std::size_t n = 0;
    std::size_t f = 0;
    /// Run-wide verdict memo for the backend's pure checks (the EC
    /// backend's branch and re-encode checks; Bracha has none). Must
    /// outlive the broadcast; sharded handlers may share it, since its
    /// stores wait for the superstep barrier (common/write_sink.h).
    /// Null: the backend keeps a private one.
    crypto::VerdictMemo* memo = nullptr;
  };

  /// Fires exactly once per source whose broadcast gets delivered.
  using DeliverFn =
      std::function<void(sim::ProcessId source, const Bytes& payload)>;

  virtual ~Broadcast() = default;

  /// Broadcasts this process's payload for the instance.
  virtual void broadcast(sim::Context& ctx, Bytes payload) = 0;

  /// Consumes the message if it belongs to this instance (matching tag),
  /// even when malformed — Byzantine bytes must not leak to the caller.
  virtual bool handle(sim::Context& ctx, const sim::Message& msg) = 0;

  virtual bool delivered(sim::ProcessId source) const = 0;
  virtual std::size_t delivered_count() const = 0;
};

/// Bracha's quorum machinery, written once for both backends: the part
/// of a broadcast that works on (source, digest) flows and never reads a
/// payload.
///
///   member, on its echo quorum > (m+f)/2 for a flow:  send <ready, src, d>
///   member, on f+1 member readies for a flow:        send <ready, src, d>
///   anyone, on 2f+1 member readies for a flow whose payload the backend
///           can produce:                              deliver (src, payload)
///
/// A flow is one (source, 32-byte digest) pair, the digest being what a
/// ready names: sha256(v) under Bracha, H(root ‖ |v|) coded. A Byzantine
/// source may equivocate into several live flows; deliver-once per source
/// lets at most one win. Echoes and readies count once per member of
/// E(source), by its position there, and a member echoes each source at
/// most once. E(source) holds at most f faulty processes, so the RBC
/// tolerates the f its caller configures, not ⌊(n−1)/3⌋. A ready costs
/// 1 + λ words.
///
/// `State` is what a backend keeps per flow besides the tallies. A
/// backend parses and checks its own initials and echoes, credits an
/// echo with count_echo, and decides when a ready quorum delivers.
/// Defined in broadcast.cpp, which instantiates it for the two backends'
/// states.
template <class State>
class QuorumBroadcast : public Broadcast {
 public:
  bool delivered(sim::ProcessId source) const final {
    return sources_.contains(kDeliveredRow, source);
  }
  std::size_t delivered_count() const final { return delivered_count_; }

 protected:
  struct Flow : State {
    Flow(sim::ProcessId src, const crypto::Digest& d, std::size_t m)
        : source(src), digest(d), senders(2, m) {}

    sim::ProcessId source;
    crypto::Digest digest;
    SenderRows senders;  // echo and ready rows, by position in E(source)
    std::size_t echoes = 0;
    std::size_t readies = 0;
    bool ready_sent = false;
  };

  QuorumBroadcast(Config cfg, DeliverFn on_deliver);

  Flow& flow_of(sim::ProcessId source, const crypto::Digest& digest);

  /// This process is in E(source) and has not echoed source yet.
  bool may_echo(const sim::Context& ctx, sim::ProcessId source) const;
  /// Broadcasts this process's one echo for `source`.
  void send_echo(sim::Context& ctx, sim::ProcessId source, Bytes wire,
                 std::size_t words);
  /// Counts member `from`'s echo toward `flow` (false if it already
  /// counted), sending this process's ready at the echo quorum.
  bool count_echo(sim::Context& ctx, Flow& flow, sim::ProcessId from);
  /// Counts a member's well-formed ready once, sending this process's
  /// ready at f + 1: the flow it counted toward, else null.
  Flow* count_ready(sim::Context& ctx, const sim::Message& msg);
  /// 2f + 1 member readies for a source not delivered yet.
  bool ready_quorum(const Flow& flow) const;
  /// The source's one delivery, noted as its decision.
  void deliver(sim::Context& ctx, sim::ProcessId source, const Bytes& payload);

  Config cfg_;
  EchoSet echo_set_;
  // Interned once at construction; handle() matches by integer id.
  sim::Tag tag_initial_;
  sim::Tag tag_echo_;
  sim::Tag tag_ready_;

 private:
  static constexpr std::size_t kEchoRow = 0;  // Flow::senders rows
  static constexpr std::size_t kReadyRow = 1;
  static constexpr std::size_t kEchoedRow = 0;  // sources_ rows
  static constexpr std::size_t kDeliveredRow = 1;

  void maybe_send_ready(sim::Context& ctx, Flow& flow);

  DeliverFn on_deliver_;
  // Buckets under a 64-bit fold of (source, digest); the full digest
  // disambiguates fold collisions.
  sim::FlatMap64<std::vector<Flow>> flows_;
  SenderRows sources_;  // per source: echoed, delivered
  std::size_t delivered_count_ = 0;
};

enum class RbcBackend : std::uint8_t {
  kBracha = 0,  // payload echo/ready (rbc.h)
  kEc = 1,      // erasure-coded dispersal (rbc_ec.h)
};

const char* to_string(RbcBackend backend);

/// Parses "bracha" / "ec" (the benches' --rbc flag vocabulary).
std::optional<RbcBackend> parse_rbc_backend(std::string_view name);

std::unique_ptr<Broadcast> make_broadcast(RbcBackend backend,
                                          Broadcast::Config cfg,
                                          Broadcast::DeliverFn on_deliver);

}  // namespace coincidence::ba
