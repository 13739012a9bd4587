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
// Word accounting lives inside the backends: each computes its own exact
// wire words from the payload it actually ships (a value v counts
// 1 + ⌈|v|/8⌉ words, a sha256 digest λ = 4 words), keeping the §2 ledger
// honest without callers guessing foreign-flow sizes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
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

/// Distinct-sender tally for the echo/ready quorums: a bitmap over
/// process ids plus its population, so an accepted message costs no node
/// allocation (the std::set it replaces paid one per insert).
class SenderSet {
 public:
  explicit SenderSet(std::size_t n = 0) : seen_(n, false) {}

  /// std::set::insert().second: true iff `p` was not yet counted.
  /// Out-of-range ids grow the map rather than being dropped.
  bool insert(sim::ProcessId p) {
    if (p >= seen_.size()) seen_.resize(p + 1, false);
    if (seen_[p]) return false;
    seen_[p] = true;
    ++count_;
    return true;
  }
  bool contains(sim::ProcessId p) const {
    return p < seen_.size() && seen_[p];
  }
  std::size_t size() const { return count_; }

 private:
  std::vector<bool> seen_;
  std::size_t count_ = 0;
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
