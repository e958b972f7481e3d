// Wall-clock stopwatch used by the numeric-plane implementations to report
// per-phase timings (the DES plane has its own simulated clock in src/sim).
#pragma once

#include <chrono>

namespace senkf {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or the last reset().
  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void reset() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace senkf
