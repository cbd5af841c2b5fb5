// Wall-clock timing utilities used by the SRT meter and benchmarks.

#ifndef PRAGUE_UTIL_STOPWATCH_H_
#define PRAGUE_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace prague {

/// \brief Monotonic stopwatch with nanosecond resolution.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// \brief Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// \brief Nanoseconds elapsed since construction or last Restart().
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  /// \brief Whole microseconds elapsed since construction or last
  /// Restart().
  int64_t ElapsedMicros() const { return ElapsedNanos() / 1000; }

  /// \brief Milliseconds elapsed, as a double (for reporting).
  double ElapsedMillis() const {
    return static_cast<double>(ElapsedNanos()) / 1e6;
  }

  /// \brief Seconds elapsed, as a double (for reporting).
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) / 1e9;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace prague

#endif  // PRAGUE_UTIL_STOPWATCH_H_
