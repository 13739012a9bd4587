// Per-thread pools of reusable buffer objects.
//
// A BA round makes new sub-instances, and each one's queues and flush
// buffers would grow again from nothing. Instead an instance takes a
// buffer object off this thread's free list when it first needs one and
// gives it back when it is done with it, so the object keeps the
// capacity its earlier users grew. Two objects are never shared: a
// flush re-entered from a completion callback (which starts the next
// instance, and that one flushes too) takes an object of its own. The
// free list holds as many objects as were ever out at once on the
// thread. Whoever gives an object back first empties whatever must not
// outlive it (payload references); an object given back on another
// thread than it was taken on simply joins that thread's list.
#pragma once

#include <memory>
#include <utility>
#include <vector>

namespace coincidence {

template <typename T>
class ScratchPool {
 public:
  /// A pooled object, or a new one when the pool is empty.
  static std::unique_ptr<T> take() {
    std::vector<std::unique_ptr<T>>& free = free_list();
    if (free.empty()) return std::make_unique<T>();
    std::unique_ptr<T> obj = std::move(free.back());
    free.pop_back();
    return obj;
  }
  static void give(std::unique_ptr<T> obj) {
    if (obj) free_list().push_back(std::move(obj));
  }

 private:
  static std::vector<std::unique_ptr<T>>& free_list() {
    thread_local std::vector<std::unique_ptr<T>> free;
    return free;
  }
};

/// A pooled object held for the length of one scope.
template <typename T>
class ScratchLease {
 public:
  ScratchLease() : obj_(ScratchPool<T>::take()) {}
  ~ScratchLease() { ScratchPool<T>::give(std::move(obj_)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  T& operator*() const { return *obj_; }
  T* operator->() const { return obj_.get(); }

 private:
  std::unique_ptr<T> obj_;
};

}  // namespace coincidence
