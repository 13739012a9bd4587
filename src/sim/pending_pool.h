// The in-flight message pool.
//
// Requirements: O(1) random access for the adversary, O(1) removal, O(1)
// amortized oldest-message lookup for the fairness bound, and a metadata-
// only read surface — adversaries can see every field of a pending
// message *except its payload*, which is exactly the delayed-adaptive
// visibility rule (payload access is reserved to the Simulation via
// take()).
//
// Layout: the messages sit in a dense, swap-removed array (the index
// space the adversary chooses from). Beside it, `order_` lists one entry
// per pushed message sorted by (enqueue tick, id), and `pos_` maps each
// live message to its entry. Ticks come from the delivery counter, so a
// push almost always appends; the few that arrive out of order (partition
// heals re-push old ids, network copies are routed before their original)
// shift back past the handful of same-tick entries they precede. A take
// marks its entry dead, the oldest lookup advances a head cursor past dead
// entries, and the array is compacted once dead entries outnumber
// 2*(live+8), so its memory stays proportional to what is in flight. No
// hashing, no heap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/errors.h"
#include "sim/message.h"

namespace coincidence::sim {

class PendingPool {
 public:
  std::size_t size() const { return msgs_.size(); }
  bool empty() const { return msgs_.empty(); }

  // Metadata-only accessors (the adversary's legal view).
  ProcessId from(std::size_t i) const { return msgs_[i].from; }
  ProcessId to(std::size_t i) const { return msgs_[i].to; }
  const std::string& tag(std::size_t i) const { return msgs_[i].tag.str(); }
  TagId tag_id(std::size_t i) const { return msgs_[i].tag.id(); }
  std::size_t words(std::size_t i) const { return msgs_[i].words; }
  std::uint64_t send_seq(std::size_t i) const { return msgs_[i].send_seq; }
  std::uint64_t enqueue_tick(std::size_t i) const {
    return order_[pos_[i]].tick;
  }

  /// Index of the pending message with the smallest (enqueue tick, id).
  /// Amortized O(1): advances the head cursor past dead entries. Pool
  /// must be non-empty.
  std::size_t oldest_index() const;

  /// Lower bound on the oldest pending message's enqueue tick: the head
  /// entry's tick, dead or not (every live entry sorts at or after it).
  /// Lets the scheduler skip the oldest_index() resolution whenever even
  /// this bound cannot trip the fairness check. O(1). Pool must be
  /// non-empty.
  std::uint64_t oldest_tick_lower_bound() const {
    COIN_REQUIRE(!msgs_.empty(), "oldest_tick_lower_bound on empty pool");
    return order_[head_].tick;
  }

  /// Capacity hint (SimConfig::expected_in_flight): presizes the arrays so
  /// a run whose in-flight population peaks at `n` never regrows them.
  void reserve(std::size_t n);

  void push(Message msg, std::uint64_t tick);

  /// Removes and returns the message at `i` (swap-remove; indices of other
  /// messages may change).
  Message take(std::size_t i);

  /// Dead entries still held in the order array — whitebox view for the
  /// compaction regression test.
  std::size_t stale_entries() const { return order_.size() - msgs_.size(); }

 private:
  static constexpr std::size_t kDead = static_cast<std::size_t>(-1);

  struct Entry {
    std::uint64_t tick;
    std::size_t index;  // into msgs_, or kDead once taken
  };

  void compact();

  std::vector<Message> msgs_;
  std::vector<std::size_t> pos_;  // msgs_[i]'s entry is order_[pos_[i]]
  std::vector<Entry> order_;      // sorted by (tick, id) from head_ on
  mutable std::size_t head_ = 0;  // every entry before it is dead
};

}  // namespace coincidence::sim
