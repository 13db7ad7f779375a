// Wall-clock timing: a monotonic stopwatch. Join phase seconds are not
// timed here — a Join() derives them from its stage ledger
// (obs/join_telemetry.h).

#pragma once

#include <chrono>
#include <cstdint>

namespace ssjoin {

/// Monotonic stopwatch with microsecond resolution.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction / last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ssjoin
