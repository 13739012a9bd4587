// Host contention sampler.
//
// On a shared host another tenant's thread can run on the hyperthread
// sibling of a vCPU this benchmark runs on. While it does, code bound by
// instruction throughput -- the scalar SHA-256 rounds that dominate the
// log workloads, the bignum arithmetic of DDH -- runs up to twice as
// slowly, for seconds to minutes at a time, and the guest cannot see it
// (no steal time, no hardware counters).
//
// The sampler measures that slowdown while the program runs: a profiling
// timer interrupts the process every 5 ms of CPU time, and the signal
// handler times a short fixed SHA-256 chain written here, not the
// library's, so no change to the program moves it. The mean time of a
// tick over an interval says how contended the cores were during it.
#pragma once

#include <cstdint>

namespace perfbench {

/// Ticks seen so far: `count` timed chains taking `busy_s` seconds in all.
struct Ticks {
  double busy_s = 0;
  std::uint64_t count = 0;

  Ticks operator-(const Ticks& earlier) const {
    return {busy_s - earlier.busy_s, count - earlier.count};
  }
  double mean_s() const {
    return count ? busy_s / static_cast<double>(count) : 0.0;
  }
};

/// Starts the sampler for the rest of the process. The handler runs on
/// whichever thread the timer interrupts; it costs about 0.5% of CPU time.
void start_sampling();
/// Ticks since start_sampling(); the difference of two readings covers
/// the interval between them.
Ticks ticks();

/// A tick's mean time on an uncontended core of the reference host (a
/// Sapphire Rapids KVM guest, GCC 12.2, Release).
inline constexpr double kQuietTickS = 24e-6;

/// Factor that takes a wall time measured while ticks took `tick_s` on
/// average to the wall time of an uncontended host.
inline double quiet_factor(double tick_s) {
  return tick_s > 0 ? kQuietTickS / tick_s : 1.0;
}

}  // namespace perfbench
