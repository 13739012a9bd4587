// Shared harness for the reliable-broadcast tests: a process hosting one
// broadcast of either backend, and the wire bytes each backend's honest
// messages carry, for tests that script Byzantine senders.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ba/broadcast.h"
#include "common/ser.h"
#include "crypto/merkle.h"
#include "crypto/reed_solomon.h"
#include "crypto/sha256.h"
#include "sim/process.h"

namespace coincidence::ba::testing {

/// Hosts one broadcast tagged "rbc" and records what it delivers.
class RbcHost final : public sim::Process {
 public:
  RbcHost(RbcBackend backend, std::size_t n, std::size_t f,
          std::optional<Bytes> to_send, crypto::VerdictMemo* memo = nullptr)
      : rbc_(make_broadcast(backend, Broadcast::Config{"rbc", n, f, memo},
                            [this](sim::ProcessId src, const Bytes& payload) {
                              delivered[src] = payload;
                            })),
        to_send_(std::move(to_send)) {}

  void on_start(sim::Context& ctx) override {
    if (to_send_) rbc_->broadcast(ctx, *to_send_);
  }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    // Broadcasts loop back to the sender: a self-addressed ready is this
    // process's own ready going out.
    if (msg.from == ctx.self() && msg.tag == sim::Tag("rbc/ready"))
      ++readies_sent;
    rbc_->handle(ctx, msg);
  }

  std::map<sim::ProcessId, Bytes> delivered;
  std::size_t readies_sent = 0;

 private:
  std::unique_ptr<Broadcast> rbc_;
  std::optional<Bytes> to_send_;
};

/// `size` bytes derived from `seed`.
inline Bytes big_value(const std::string& seed, std::size_t size) {
  Bytes v;
  v.reserve(size);
  while (v.size() < size) {
    for (char c : seed) {
      if (v.size() == size) break;
      v.push_back(static_cast<std::uint8_t>(
          c ^ static_cast<char>(v.size() & 0x7f)));
    }
  }
  return v;
}

inline Bytes branch_bytes(const crypto::MerkleTree& tree, std::size_t index) {
  Bytes out;
  for (const crypto::Digest& d : tree.branch(index))
    out.insert(out.end(), d.begin(), d.end());
  return out;
}

/// Wire-format coded initial for leaf `index` of `tree`: what a (possibly
/// dishonest) source would send that process.
inline Bytes initial_wire(std::uint64_t value_size, const Bytes& fragment,
                          const crypto::MerkleTree& tree, std::size_t index) {
  Writer w;
  w.u64(value_size).blob(fragment).blob(branch_bytes(tree, index));
  return w.take();
}

/// Wire-format coded echo for `source`'s dispersal: what an echoer sends
/// after a valid initial, or a forgery built from parts of one.
inline Bytes echo_wire(sim::ProcessId source, std::uint64_t value_size,
                       const crypto::Digest& root, const Bytes& fragment,
                       const Bytes& branch) {
  Writer w;
  w.u32(source).u64(value_size);
  w.blob(BytesView(root.data(), root.size())).blob(fragment).blob(branch);
  return w.take();
}

/// An honest broadcast of `value` by `source` at (n, f) on `backend`, as
/// bytes: the initial the member at position j of E(source) gets, that
/// member's echo, and the ready every member sends. The coded backend
/// codes min(n, 3f + 1) fragments, f + 1 of them data.
class RbcWire {
 public:
  RbcWire(RbcBackend backend, std::size_t n, std::size_t f,
          sim::ProcessId source, Bytes value)
      : source_(source), value_(std::move(value)) {
    if (backend != RbcBackend::kEc) return;
    frags_ = crypto::ReedSolomon(std::min(n, 3 * f + 1), f + 1)
                 .encode(value_);
    tree_.emplace(frags_);
  }

  Bytes initial(std::size_t j) const {
    if (!tree_) return value_;
    return initial_wire(value_.size(), frags_[j], *tree_, j);
  }
  Bytes echo(std::size_t j) const {
    if (!tree_) {
      Writer w;
      w.u32(source_).blob(value_);
      return w.take();
    }
    return echo_wire(source_, value_.size(), tree_->root(), frags_[j],
                     branch_bytes(*tree_, j));
  }
  Bytes ready() const {
    const crypto::Digest d =
        tree_ ? crypto::sha256(concat({BytesView(tree_->root()),
                                       bytes_of_u64(value_.size())}))
              : crypto::sha256(value_);
    Writer w;
    w.u32(source_).blob(BytesView(d.data(), d.size()));
    return w.take();
  }

 private:
  sim::ProcessId source_;
  Bytes value_;
  std::vector<Bytes> frags_;                // coded backend only
  std::optional<crypto::MerkleTree> tree_;  // coded backend only
};

}  // namespace coincidence::ba::testing
