// The one router of nested instances (§3: "setup has to occur once and
// may be used for any number of BA instances"). Each host names child k
// by the tag prefix "<prefix><k>" — a log's slots ("slot<k>"), a
// MultiValuedBa's candidate BAs ("<tag>/c<k>"), a Session's BA slots
// ("slot<k>") — and the router owns those children, activated in index
// order, reads k with sim::tag_index, and holds traffic for a child not
// yet activated, replaying it in arrival order on activation. A tag
// naming no child below `limit` is foreign (only Byzantine senders make
// one) and dropped; the TagId -> index memo caches that verdict too, so
// a tag routes the same way on every sighting and is parsed once.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/flat_map64.h"
#include "sim/message.h"
#include "sim/process.h"

namespace coincidence::ba {

template <class Child>
class InstanceRouter {
 public:
  InstanceRouter(std::string prefix, std::size_t limit)
      : prefix_(std::move(prefix)), limit_(limit) {}

  /// Hands `msg` to the child its tag names and returns that child, or
  /// returns nullptr: the child is not active yet (the message is held
  /// for it) or the tag is foreign (the message is dropped).
  Child* deliver(sim::Context& ctx, const sim::Message& msg) {
    const std::optional<std::size_t> k = index_of(msg.tag);
    if (!k) return nullptr;
    if (*k >= children_.size()) {
      held_.push_back(msg);
      return nullptr;
    }
    children_[*k]->on_message(ctx, msg);
    return children_[*k].get();
  }

  /// Appends `child` as child size() without starting it, for a host
  /// that starts its children itself.
  Child& add(std::unique_ptr<Child> child) {
    children_.push_back(std::move(child));
    return *children_.back();
  }

  /// Appends `child` as child size(), starts it, and replays the traffic
  /// held for it in arrival order. The replay can hold more messages
  /// (for later children), so the queue is swapped out first.
  Child& activate(sim::Context& ctx, std::unique_ptr<Child> child) {
    const std::size_t k = children_.size();
    Child& c = add(std::move(child));
    c.on_start(ctx);
    std::vector<sim::Message> pending;
    pending.swap(held_);
    for (sim::Message& m : pending) {
      if (index_of(m.tag) == k)
        c.on_message(ctx, m);
      else
        held_.push_back(std::move(m));
    }
    return c;
  }

  std::size_t size() const { return children_.size(); }
  Child& operator[](std::size_t k) { return *children_[k]; }
  const Child& operator[](std::size_t k) const { return *children_[k]; }
  /// Active children in index order.
  const std::vector<std::unique_ptr<Child>>& children() const {
    return children_;
  }

 private:
  std::optional<std::size_t> index_of(sim::Tag tag) {
    if (const auto* cached = memo_.find(tag.id())) return *cached;
    const std::optional<std::uint64_t> k = sim::tag_index(tag.str(), prefix_);
    return memo_[tag.id()] =
               k && *k < limit_ ? std::optional<std::size_t>(*k) : std::nullopt;
  }

  std::string prefix_;
  std::size_t limit_;
  std::vector<std::unique_ptr<Child>> children_;
  std::vector<sim::Message> held_;  // for children not yet activated
  // TagId -> child index, nullopt for a foreign tag.
  sim::FlatMap64<std::optional<std::size_t>> memo_;
};

}  // namespace coincidence::ba
