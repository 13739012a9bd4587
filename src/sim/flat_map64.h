// Open-addressing hash map keyed by u64 (ISSUE 3 tentpole).
//
// The simulator's hot-path indexes — the replay history's (from,to)->ring
// map, NetworkProfile overrides — were node-based (std::map /
// std::unordered_map): one heap allocation per insert and pointer-chasing
// per lookup, paid per message. FlatMap64 is a fixed-purpose replacement:
// linear probing over a power-of-two slot array, tombstone deletion,
// amortized O(1) with zero per-insert allocations. Values must be
// default-constructible and movable.
//
// Iteration order is slot order (hash-dependent) — callers must not let
// it reach anything determinism-sensitive; the simulator only ever does
// keyed lookups and order-insensitive folds.
#pragma once

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

namespace coincidence::sim {

template <typename V>
class FlatMap64 {
 public:
  V* find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.state == State::kEmpty) return nullptr;
      if (s.state == State::kFull && s.key == key) return &s.value;
    }
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }

  /// Returns the value slot for `key`, inserting a default-constructed
  /// value if absent.
  V& operator[](std::uint64_t key) {
    reserve_one();
    // One probe pass: stop at the first empty slot (key is absent past
    // it), remembering the first reusable slot along the way.
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t insert_at = kNone;
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.state == State::kFull) {
        if (s.key == key) return s.value;
        continue;
      }
      if (insert_at == kNone) insert_at = i;
      if (s.state == State::kEmpty) break;
    }
    Slot& t = slots_[insert_at];
    if (t.state == State::kTombstone) --tombstones_;
    t.state = State::kFull;
    t.key = key;
    t.value = V{};
    ++size_;
    return t.value;
  }

  void insert_or_assign(std::uint64_t key, V value) {
    (*this)[key] = std::move(value);
  }

  bool erase(std::uint64_t key) {
    if (slots_.empty()) return false;
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.state == State::kEmpty) return false;
      if (s.state == State::kFull && s.key == key) {
        s.state = State::kTombstone;
        s.value = V{};  // release held resources eagerly
        --size_;
        ++tombstones_;
        return true;
      }
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` live keys (the SimConfig capacity-hint
  /// path) so churn-heavy large-n runs never rehash mid-flight. Keeps
  /// the <=50% load invariant: the slot array becomes the smallest
  /// power of two holding 2*(n+1) slots. No-op when already that large;
  /// existing entries (and no tombstones) carry over.
  void reserve(std::size_t n) {
    std::size_t target = 16;
    while (target < 2 * (n + 1)) target <<= 1;
    if (target <= slots_.size()) return;
    rehash_to(target);
  }

  /// Whitebox capacity view for the growth/compaction regression tests.
  std::size_t slot_count() const { return slots_.size(); }

  void clear() {
    slots_.clear();
    size_ = 0;
    tombstones_ = 0;
  }

  /// Order-insensitive visitation (for aggregate checks only — see the
  /// header note on iteration order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_)
      if (s.state == State::kFull) fn(s.key, s.value);
  }

 private:
  enum class State : std::uint8_t { kEmpty = 0, kFull, kTombstone };

  struct Slot {
    std::uint64_t key = 0;
    V value{};
    State state = State::kEmpty;
  };

  std::size_t mask() const { return slots_.size() - 1; }

  std::size_t probe_start(std::uint64_t key) const {
    // splitmix64 finalizer: full-avalanche, so sequential message ids do
    // not cluster in the probe sequence.
    std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(z ^ (z >> 31)) & mask();
  }

  void reserve_one() {
    if (slots_.empty()) {
      slots_.resize(16);
      return;
    }
    // Rehash when live + dead slots pass half capacity; doubling only
    // when live entries alone demand it keeps tombstone churn bounded.
    if ((size_ + tombstones_ + 1) * 2 <= slots_.size()) return;
    std::size_t new_cap = slots_.size();
    if ((size_ + 1) * 2 > slots_.size()) new_cap *= 2;
    rehash_to(new_cap);
  }

  /// Rebuilds into `new_cap` slots (a power of two >= 2*(size_+1)),
  /// dropping every tombstone.
  void rehash_to(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    size_ = 0;
    tombstones_ = 0;
    for (Slot& s : old) {
      if (s.state != State::kFull) continue;
      for (std::size_t i = probe_start(s.key);; i = (i + 1) & mask()) {
        Slot& t = slots_[i];
        if (t.state == State::kFull) continue;
        t.state = State::kFull;
        t.key = s.key;
        t.value = std::move(s.value);
        ++size_;
        break;
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace coincidence::sim
