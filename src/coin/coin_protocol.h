// Common component interface for all coin implementations.
//
// A coin is a sub-protocol that lives inside a host Process: the host
// forwards matching messages to handle() and reads the binary output once
// done() holds. The BA protocol (Algorithm 4) owns one coin instance per
// round; standalone tests and benches wrap one instance in a CoinHost.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>

#include "common/bytes.h"
#include "crypto/key_registry.h"
#include "sim/process.h"

namespace coincidence::coin {

/// A coin's running minimum v_i: the least VRF value seen so far, the
/// process whose VRF produced it, and that process's proof.
struct MinShare {
  Bytes value;  // empty encodes the paper's v_i = ∞
  crypto::ProcessId origin = 0;
  Bytes proof;

  /// Keeps the smaller of the held share and a validated (v, o, p).
  /// Lexicographic comparison of the fixed-width big-endian values is the
  /// numeric order; the origin id breaks the (cryptographically
  /// negligible) tie. The buffers are reused, not reallocated.
  void fold(BytesView v, crypto::ProcessId o, BytesView p) {
    const bool less = std::lexicographical_compare(v.begin(), v.end(),
                                                   value.begin(), value.end());
    const bool equal = v.size() == value.size() &&
                       std::equal(v.begin(), v.end(), value.begin());
    if (value.empty() || less || (equal && o < origin)) {
      value.assign(v.begin(), v.end());
      origin = o;
      proof.assign(p.begin(), p.end());
    }
  }
};

class CoinProtocol {
 public:
  virtual ~CoinProtocol() = default;

  /// Begins the instance (sends the first-phase messages, if any).
  virtual void start(sim::Context& ctx) = 0;

  /// Offers a delivered message; returns true iff it belonged to this
  /// instance (matched the tag prefix) and was consumed.
  virtual bool handle(sim::Context& ctx, const sim::Message& msg) = 0;

  /// True once this process has returned from the coin.
  virtual bool done() const = 0;

  /// The coin value in {0, 1}; requires done().
  virtual int output() const = 0;
};

/// Decorator that fires a callback exactly once when the wrapped coin
/// completes — lets hosts attach completion logic to factory-built coins
/// whose constructors already fixed their own callbacks.
class CallbackCoin final : public CoinProtocol {
 public:
  using DoneFn = std::function<void(int)>;

  CallbackCoin(std::unique_ptr<CoinProtocol> inner, DoneFn on_done)
      : inner_(std::move(inner)), on_done_(std::move(on_done)) {}

  void start(sim::Context& ctx) override {
    inner_->start(ctx);
    maybe_fire();
  }
  bool handle(sim::Context& ctx, const sim::Message& msg) override {
    bool consumed = inner_->handle(ctx, msg);
    maybe_fire();
    return consumed;
  }
  bool done() const override { return inner_->done(); }
  int output() const override { return inner_->output(); }

 private:
  void maybe_fire() {
    if (!fired_ && inner_->done()) {
      fired_ = true;
      if (on_done_) on_done_(inner_->output());
    }
  }

  std::unique_ptr<CoinProtocol> inner_;
  DoneFn on_done_;
  bool fired_ = false;
};

/// A Process hosting exactly one coin instance — the standalone harness
/// used by coin tests and benches.
class CoinHost final : public sim::Process {
 public:
  explicit CoinHost(std::unique_ptr<CoinProtocol> coin)
      : coin_(std::move(coin)) {}

  void on_start(sim::Context& ctx) override { coin_->start(ctx); }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    coin_->handle(ctx, msg);
  }

  const CoinProtocol& coin() const { return *coin_; }

 private:
  std::unique_ptr<CoinProtocol> coin_;
};

}  // namespace coincidence::coin
