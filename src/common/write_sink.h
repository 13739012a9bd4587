// Deferred writes to run-wide caches, applied at the superstep barrier.
//
// Every process of a run shares one set of pure-verdict caches (the
// committee sampler's and the BatchVerifier's memos). While the sharded
// engine runs handlers on several threads those caches are read-only: a
// miss is computed in full and its write goes through defer_write onto
// the WriteSink of the running shard, which the engine drains in shard
// order after the handler phase (DESIGN.md §5g). With no sink installed
// (the legacy loop, serial callbacks) a write applies at once. A queued
// write points at its cache, so a cache must outlive the phase that
// wrote to it.
#pragma once

#include <functional>
#include <utility>
#include <vector>

namespace coincidence {

class WriteSink {
 public:
  WriteSink() = default;
  WriteSink(const WriteSink&) = delete;  // a thread may point at it
  WriteSink& operator=(const WriteSink&) = delete;

  /// This thread's sink, or null when writes apply at once.
  static WriteSink*& current() {
    thread_local WriteSink* sink = nullptr;
    return sink;
  }

  /// Installs `sink` as this thread's sink for the scope's lifetime.
  class Scope {
   public:
    explicit Scope(WriteSink& sink) : prev_(current()) { current() = &sink; }
    ~Scope() { current() = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    WriteSink* prev_;
  };

  void push(std::function<void()> write) {
    writes_.push_back(std::move(write));
  }
  /// Applies the queued writes in queue order and empties the queue.
  void drain() {
    for (std::function<void()>& write : writes_) write();
    writes_.clear();
  }

 private:
  std::vector<std::function<void()>> writes_;
};

/// Runs `write` now, or queues it on this thread's sink.
template <typename Write>
void defer_write(Write&& write) {
  if (WriteSink* sink = WriteSink::current())
    sink->push(std::forward<Write>(write));
  else
    write();
}

/// Runs `write` now when no sink is installed; otherwise queues the
/// write `owned()` returns, which must own copies of whatever `write`
/// only views. A cache store on the legacy loop so copies nothing.
template <typename Write, typename Owned>
void defer_write(Write&& write, Owned&& owned) {
  if (WriteSink* sink = WriteSink::current())
    sink->push(owned());
  else
    write();
}

}  // namespace coincidence
