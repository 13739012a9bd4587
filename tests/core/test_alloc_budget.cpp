// The allocation budget of a binary BA-WHP run.
//
// This binary replaces the global operator new to count allocations, so
// it holds no other test: the counter would see theirs. A run is
// deterministic, so the count is a property of the code, not of the
// host, and the budget gates the delivery path against new per-message
// allocations (docs/SIM_FAST_PATH.md, "Allocation budget").
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/runner.h"
#include "sim/observer.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// The replaced set pairs malloc with free, so a block counted or not
// is released the same way.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace coincidence::core {
namespace {

// The allocations of one cold run_agreement(kBaWhp) at n = 32, seed 7
// (environment set-up included), per delivery: 3,313 allocations over
// 6,737 deliveries, 0.49.
constexpr double kMaxAllocsPerDelivery = 0.50;

struct DeliveryCount final : sim::Observer {
  std::uint64_t n = 0;
  void on_deliver(const sim::Message&) override { ++n; }
};

TEST(AllocBudget, BaWhpRunStaysWithinItsBudget) {
  RunOptions o;
  o.protocol = Protocol::kBaWhp;
  o.n = 32;
  o.seed = 7;
  auto deliveries = std::make_shared<DeliveryCount>();
  RunInstruments instruments;
  instruments.observers.push_back(deliveries);

  g_allocations = 0;
  g_counting = true;
  const RunReport r = run_agreement(o, instruments);
  g_counting = false;
  const std::uint64_t allocations = g_allocations;

  ASSERT_TRUE(r.all_correct_decided);
  ASSERT_GT(deliveries->n, 0u);
  const double per_delivery = static_cast<double>(allocations) /
                              static_cast<double>(deliveries->n);
  RecordProperty("allocations", static_cast<int>(allocations));
  RecordProperty("deliveries", static_cast<int>(deliveries->n));
  EXPECT_LE(per_delivery, kMaxAllocsPerDelivery)
      << allocations << " allocations over " << deliveries->n
      << " deliveries";
}

}  // namespace
}  // namespace coincidence::core
