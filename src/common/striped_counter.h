// An event counter that concurrent threads bump without sharing a cache
// line.
//
// The run-wide verification state (crypto::VerdictMemo, coin::
// BatchVerifier) is read by every handler thread of the sharded engine,
// and each lookup or check counts itself. With one std::atomic per
// counter every count would be a write to a line all handler threads
// contend for. A StripedCounter instead keeps kStripes cache-line-sized
// stripes (so it shares no line with its neighbours either); a
// thread adds to the stripe it was assigned on first use, and a read
// sums the stripes. Adds are relaxed atomic, so totals are exact even
// when two live threads share a stripe; a read taken while other threads
// still add sees some prefix of their adds, and an exact total once they
// have joined.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace coincidence {

class StripedCounter {
 public:
  static constexpr std::size_t kStripes = 8;
  static constexpr std::size_t kLine = 64;

  void add(std::uint64_t k) {
    stripes_[this_thread_stripe()].count.fetch_add(k,
                                                   std::memory_order_relaxed);
  }
  StripedCounter& operator++() {
    add(1);
    return *this;
  }
  StripedCounter& operator+=(std::uint64_t k) {
    add(k);
    return *this;
  }

  /// The sum over all stripes.
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Stripe& s : stripes_)
      sum += s.count.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(kLine) Stripe {
    std::atomic<std::uint64_t> count{0};
  };

  /// The calling thread's stripe: threads take stripes round-robin in
  /// the order they first count, so the threads of one pool mostly land
  /// on distinct stripes; a shared stripe costs speed, not exactness.
  static std::size_t this_thread_stripe() {
    thread_local const std::size_t stripe = claim_stripe();
    return stripe;
  }
  static std::size_t claim_stripe();

  std::array<Stripe, kStripes> stripes_{};
};

}  // namespace coincidence
