#include "sim/pending_pool.h"

namespace coincidence::sim {

void PendingPool::reserve(std::size_t n) {
  msgs_.reserve(n);
  pos_.reserve(n);
  order_.reserve(n);
}

void PendingPool::push(Message msg, std::uint64_t tick) {
  const std::uint64_t id = msg.id;
  const std::size_t index = msgs_.size();
  msgs_.push_back(std::move(msg));
  // Shift back past the entries that sort after (tick, id), so the first
  // live entry stays the live minimum. Dead entries carry no id; passing
  // every dead entry of the same tick keeps the ticks sorted, which is all
  // the lower bound needs.
  std::size_t slot = order_.size();
  order_.push_back({});
  for (; slot > head_; --slot) {
    const Entry& prev = order_[slot - 1];
    if (prev.tick < tick) break;
    if (prev.tick == tick && prev.index != kDead && msgs_[prev.index].id < id)
      break;
    order_[slot] = prev;
    if (prev.index != kDead) pos_[prev.index] = slot;
  }
  order_[slot] = {tick, index};
  pos_.push_back(slot);
}

void PendingPool::compact() {
  std::size_t out = 0;
  for (std::size_t s = head_; s < order_.size(); ++s) {
    if (order_[s].index == kDead) continue;
    order_[out] = order_[s];
    pos_[order_[out].index] = out;
    ++out;
  }
  order_.resize(out);
  head_ = 0;
}

std::size_t PendingPool::oldest_index() const {
  COIN_REQUIRE(!msgs_.empty(), "oldest_index on empty pool");
  while (order_[head_].index == kDead) ++head_;
  return order_[head_].index;
}

Message PendingPool::take(std::size_t i) {
  COIN_REQUIRE(i < msgs_.size(), "take: bad index");
  order_[pos_[i]].index = kDead;
  Message out = std::move(msgs_[i]);
  if (i + 1 != msgs_.size()) {
    msgs_[i] = std::move(msgs_.back());
    pos_[i] = pos_.back();
    order_[pos_[i]].index = i;
  }
  msgs_.pop_back();
  pos_.pop_back();
  if (stale_entries() > 2 * (msgs_.size() + 8)) compact();
  return out;
}

}  // namespace coincidence::sim
