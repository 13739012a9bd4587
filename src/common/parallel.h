// Shared thread pool + order-preserving fan-out helper.
//
// Lives in common/ (rather than core/, where it started) so that lower
// layers — notably the coin layer's batch share verification — can fan
// work out without depending on the experiment runner.
// core::run_agreements_parallel (core/runner.h) layers the run_agreement
// driver on top.
//
// Work items execute on whatever thread grabs them, but results are
// stored by input index, so parallel_map's output vector is
// bit-identical to a serial loop regardless of thread count or
// scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace coincidence {

/// Hardware concurrency, clamped to at least 1 (the standard allows 0).
std::size_t default_thread_count();

/// Fixed-size pool of worker threads with a shared atomic work queue.
/// The calling thread participates in every job, so a pool constructed
/// with `threads == 1` runs everything inline on the caller — handy for
/// A/B-ing parallel against serial execution in tests.
///
/// Jobs are NOT reentrant: body(i) must never call back into
/// for_each_index on the same pool.
class ThreadPool {
 public:
  /// `threads` is the TOTAL worker count including the calling thread;
  /// 0 means default_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, including the calling thread.
  std::size_t size() const { return workers_.size() + 1; }

  /// Runs body(i) once for every i in [0, count), distributing indices
  /// over the pool via an atomic counter, and blocks until all complete.
  /// If any invocations throw, the exception of the LOWEST failing index
  /// is rethrown (a deterministic choice independent of scheduling).
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  void work(const std::function<void(std::size_t)>& body, std::size_t count);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t active_ = 0;       // workers still inside the current job
  std::uint64_t generation_ = 0; // bumped per job so workers wake exactly once
  bool stop_ = false;

  std::mutex err_mu_;
  std::exception_ptr err_;
  std::size_t err_index_ = 0;
};

/// Maps fn over [0, count) on the pool, returning results in input order.
/// R must be default-constructible (slot storage before fn(i) fills it).
template <typename Fn>
auto parallel_map(ThreadPool& pool, std::size_t count, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  std::vector<decltype(fn(std::size_t{}))> out(count);
  pool.for_each_index(count, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace coincidence
