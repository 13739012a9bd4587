#include "common/striped_counter.h"

namespace coincidence {

std::size_t StripedCounter::claim_stripe() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

}  // namespace coincidence
