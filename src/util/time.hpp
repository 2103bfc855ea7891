// Strong simulated-time types used throughout the framework.
//
// All discrete-event simulation runs on integer microseconds to keep event
// ordering exact and reproducible. Reliability analysis (Markov models) works
// in continuous hours and uses plain double; the two worlds only meet in
// benches, via explicit conversions.
#pragma once

#include <chrono>
#include <cstdint>
#include <compare>

namespace nlft::util {

/// Wall-clock stopwatch for throughput/ETA reporting.
///
/// This is the ONLY sanctioned wall-clock access outside util/rng.hpp: all
/// simulation and analysis results must be wall-clock-free so campaigns are
/// bit-reproducible (tools/determinism_lint.sh enforces it). Never let a
/// stopwatch reading influence results — observability only.
class MonotonicStopwatch {
 public:
  MonotonicStopwatch() : start_{std::chrono::steady_clock::now()} {}

  /// Seconds elapsed since construction.
  [[nodiscard]] double elapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// A span of simulated time with microsecond resolution.
///
/// Value type, totally ordered, closed under addition/subtraction and under
/// scaling by integers. Negative durations are representable (useful for
/// slack arithmetic) but most APIs require non-negative values.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration microseconds(std::int64_t us) { return Duration{us}; }
  [[nodiscard]] static constexpr Duration milliseconds(std::int64_t ms) { return Duration{ms * 1000}; }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t s) { return Duration{s * 1'000'000}; }

  [[nodiscard]] constexpr std::int64_t us() const { return us_; }
  [[nodiscard]] constexpr double toSeconds() const { return static_cast<double>(us_) / 1e6; }
  [[nodiscard]] constexpr double toMilliseconds() const { return static_cast<double>(us_) / 1e3; }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration& operator+=(Duration d) { us_ += d.us_; return *this; }
  constexpr Duration& operator-=(Duration d) { us_ -= d.us_; return *this; }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.us_ + b.us_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.us_ - b.us_}; }
  friend constexpr Duration operator*(Duration a, std::int64_t k) { return Duration{a.us_ * k}; }
  friend constexpr Duration operator*(std::int64_t k, Duration a) { return a * k; }
  /// Integer division: how many times does `b` fit into `a` (floor).
  friend constexpr std::int64_t operator/(Duration a, Duration b) { return a.us_ / b.us_; }

 private:
  constexpr explicit Duration(std::int64_t us) : us_{us} {}
  std::int64_t us_ = 0;
};

/// An absolute instant on the simulated clock (microseconds since start).
class SimTime {
 public:
  constexpr SimTime() = default;

  [[nodiscard]] static constexpr SimTime zero() { return SimTime{}; }
  [[nodiscard]] static constexpr SimTime fromUs(std::int64_t us) { return SimTime{us}; }

  [[nodiscard]] constexpr std::int64_t us() const { return us_; }
  [[nodiscard]] constexpr double toSeconds() const { return static_cast<double>(us_) / 1e6; }

  constexpr auto operator<=>(const SimTime&) const = default;

  friend constexpr SimTime operator+(SimTime t, Duration d) { return SimTime{t.us_ + d.us()}; }
  friend constexpr SimTime operator-(SimTime t, Duration d) { return SimTime{t.us_ - d.us()}; }
  friend constexpr Duration operator-(SimTime a, SimTime b) { return Duration::microseconds(a.us_ - b.us_); }

 private:
  constexpr explicit SimTime(std::int64_t us) : us_{us} {}
  std::int64_t us_ = 0;
};

/// Hours expressed as double, for the continuous-time reliability world.
constexpr double kHoursPerYear = 8760.0;

/// Converts a mean-time value in seconds to a rate in events per hour.
[[nodiscard]] constexpr double ratePerHourFromSeconds(double seconds) { return 3600.0 / seconds; }

}  // namespace nlft::util
