// Host-speed index for normalizing the benchmark's timings.
//
// On a shared virtual machine the same code runs up to twice as fast in
// one minute as in the next: neighbours load the cores and caches this
// guest runs on. Interleaved medians cannot remove a drift that lasts
// longer than a run. So every run also times a fixed unit of
// benchmark-owned work (scalar distance loops and a sort; nothing from
// the program) at points spread through its measuring window, on as many
// threads as the timed operations use. The median of those samples says
// how fast the host ran during this run, and the timed figures are
// rescaled to kReferenceUnitSeconds, the unit's median when the host is
// quiet. A change to the program cannot move the unit.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "reference.hpp"
#include "trace.hpp"

namespace kcb {

/// Median seconds of one unit on a quiet host (4-vCPU KVM guest, Xeon
/// with AVX-512, gcc 12 -O3); only scales the normalized figures.
inline constexpr double kReferenceUnitSeconds = 3.0e-3;

/// Runs one unit on the calling thread and returns its wall seconds.
inline double timed_unit() {
  static const std::vector<double> coords = [] {
    ref::SplitMix mix{1};
    std::vector<double> c(4096 * 2);
    for (double& x : c) x = mix.uniform(100.0);
    return c;
  }();
  static const std::vector<std::uint64_t> keys = [] {
    ref::SplitMix mix{2};
    std::vector<std::uint64_t> k(1 << 15);
    for (std::uint64_t& x : k) x = mix.next();
    return k;
  }();
  const std::vector<std::uint32_t> centers = {0, 1, 2, 3, 4, 5, 6, 7};
  const ref::Points p{coords.data(), 4096, 2};

  const Clock::time_point start = Clock::now();
  double sink = 0.0;
  for (int r = 0; r < 6; ++r) sink += ref::covering_radius(p, centers);
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const Clock::time_point end = Clock::now();
  volatile double keep = sink + static_cast<double>(sorted[sorted.size() / 2]);
  (void)keep;
  return seconds_between(start, end);
}

/// Samples the unit on `threads` threads at once: the caller plus
/// threads - 1 persistent helpers, which sleep between samples.
class HostSpeed {
 public:
  explicit HostSpeed(int threads)
      : times_(static_cast<std::size_t>(std::max(threads, 1))) {
    for (std::size_t slot = 1; slot < times_.size(); ++slot) {
      helpers_.emplace_back([this, slot] { helper(slot); });
    }
  }
  ~HostSpeed() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    start_.notify_all();
    for (std::thread& h : helpers_) h.join();
  }
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// One sample: every thread runs the unit; records and returns their
  /// mean time.
  double sample() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++generation_;
      pending_ = helpers_.size();
    }
    start_.notify_all();
    const double own = timed_unit();
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return pending_ == 0; });
    times_[0] = own;
    double sum = 0.0;
    for (const double t : times_) sum += t;
    samples_.push_back(sum / static_cast<double>(times_.size()));
    return samples_.back();
  }

  /// kReferenceUnitSeconds over the median sample: above 1 when this
  /// run's host was faster than the reference. 1 with no samples.
  [[nodiscard]] double speed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return samples_.empty() ? 1.0 : kReferenceUnitSeconds / median(samples_);
  }

  [[nodiscard]] double median_unit_seconds() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return median(samples_);
  }

 private:
  void helper(std::size_t slot) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      const double t = timed_unit();
      const std::lock_guard<std::mutex> lock(mutex_);
      times_[slot] = t;
      if (--pending_ == 0) done_.notify_one();
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::vector<double> times_;    ///< last sample, one per thread
  std::vector<double> samples_;  ///< mean per sample
  std::vector<std::thread> helpers_;  ///< last: they use every member above
};

}  // namespace kcb
