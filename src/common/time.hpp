// Virtual-time representation used throughout the simulator.
//
// The engine keeps time in integer picoseconds so that per-byte LogGP gaps
// (G ≈ 0.1 ns/B in the paper's Table I) are representable exactly. A uint64
// picosecond clock wraps after ~213 days of simulated time, far beyond any
// run in this repository.
#pragma once

#include <chrono>
#include <cstdint>

namespace narma {

/// Virtual time in picoseconds.
using Time = std::uint64_t;

/// Signed duration in picoseconds (for differences).
using TimeDelta = std::int64_t;

constexpr Time kPicosPerNano = 1000;
constexpr Time kPicosPerMicro = 1000 * kPicosPerNano;
constexpr Time kPicosPerMilli = 1000 * kPicosPerMicro;
constexpr Time kPicosPerSecond = 1000 * kPicosPerMilli;

constexpr Time ps(std::uint64_t v) { return v; }
constexpr Time ns(double v) {
  return static_cast<Time>(v * static_cast<double>(kPicosPerNano));
}
constexpr Time us(double v) {
  return static_cast<Time>(v * static_cast<double>(kPicosPerMicro));
}
constexpr Time ms(double v) {
  return static_cast<Time>(v * static_cast<double>(kPicosPerMilli));
}
constexpr Time seconds(double v) {
  return static_cast<Time>(v * static_cast<double>(kPicosPerSecond));
}

constexpr double to_ns(Time t) {
  return static_cast<double>(t) / static_cast<double>(kPicosPerNano);
}
constexpr double to_us(Time t) {
  return static_cast<double>(t) / static_cast<double>(kPicosPerMicro);
}
constexpr double to_ms(Time t) {
  return static_cast<double>(t) / static_cast<double>(kPicosPerMilli);
}
constexpr double to_seconds(Time t) {
  return static_cast<double>(t) / static_cast<double>(kPicosPerSecond);
}

/// Monotonic wall-clock nanoseconds, for host-time measurements (the
/// profiler, the engine's run time, stencil calibration); never charged to
/// virtual time directly.
inline std::uint64_t wallclock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace narma
