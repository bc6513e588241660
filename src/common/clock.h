// Virtual time.
//
// All timed behaviour (DeviceFlow dispatch schedules, aggregation windows,
// phone-stage durations) runs on the discrete-event loop's virtual clock,
// in microseconds, so results never depend on wall time.
#pragma once

#include <cstdint>

namespace simdc {

/// Simulation time in microseconds since simulation start.
using SimTime = std::int64_t;
/// Duration in microseconds.
using SimDuration = std::int64_t;

/// The longest duration an input (a spec key, a usage-trace time) may set,
/// in seconds (about 31,700 years): its microsecond count fits SimDuration
/// with room to add it to a clock.
constexpr double kMaxSeconds = 1e12;

constexpr SimDuration Micros(std::int64_t us) { return us; }
constexpr SimDuration Millis(double ms) {
  return static_cast<SimDuration>(ms * 1e3);
}
constexpr SimDuration Seconds(double s) {
  return static_cast<SimDuration>(s * 1e6);
}
constexpr SimDuration Minutes(double m) {
  return static_cast<SimDuration>(m * 60e6);
}
constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / 1e6; }
constexpr double ToMinutes(SimDuration d) { return static_cast<double>(d) / 60e6; }

/// Manually-advanced clock. The discrete-event scheduler in src/sim owns
/// one and moves it from event to event.
class ManualClock {
 public:
  SimTime Now() const { return now_; }
  void AdvanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }

 private:
  SimTime now_ = 0;
};

}  // namespace simdc
