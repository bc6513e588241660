// Message dispatching strategies (§V-B).
//
// DeviceFlow supports:
//   1. Real-time accumulated dispatching — activated at the start of each
//      round; dispatches whenever the accumulated message count reaches the
//      next threshold in a user sequence (n == 1 → pass-through, matching
//      "other simulators"); per-message transmission-failure probability p
//      simulates dropouts.
//   2. Rule-based dispatching — initiated on round completion:
//      a. specific time-point dispatching: user-defined (time, quantity)
//         pairs, relative to round end or absolute; dropout per point via
//         failure probability or random discard;
//      b. specific time-interval dispatching: a rate function y = f(t) is
//         discretized by AUC ratio into time points under the dispatcher's
//         single-threaded capacity limit (~700 msg/s), then executed as (a).
#pragma once

#include <cstdint>
#include <limits>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "flow/rate_functions.h"

namespace simdc::flow {

/// Single-thread transmission capacity (messages/second) — §V-B's example
/// value; also the spreading rate the cloud observes in Fig. 10(b).
inline constexpr double kDefaultCapacityPerSecond = 700.0;

/// 1. Real-time accumulated dispatching.
struct RealtimeAccumulated {
  /// Threshold sequence, cycled (Fig. 10 discussion: e.g. [20, 100, 50]).
  /// A single entry [n] is the plain threshold strategy; [1] is real-time
  /// pass-through.
  std::vector<std::size_t> thresholds = {1};
  /// Per-message transmission failure probability p ∈ [0, 1].
  double failure_probability = 0.0;
  /// Sender transmission capacity (messages/second) used by the
  /// dispatcher's rate limiter. Sharded fleets give each shard its own
  /// sender; a finite capacity therefore rate-limits per shard, which is
  /// deterministic at any fixed width but not width-invariant. Configs
  /// that assert cross-width bit-identity must disengage the limiter
  /// entirely (kShardWidthInvariantCapacity).
  double capacity_per_second = kDefaultCapacityPerSecond;
};

/// Infinite capacity: the dispatcher stamps every message of a tick with
/// the tick's own time (zero serialization delay, no limiter state). Any
/// finite capacity keeps the >= 1 microsecond per-message floor, which
/// serializes same-microsecond uploads *per dispatcher* and therefore
/// stamps them differently at different shard widths — so this is the
/// only capacity under which the shard-width bit-identity contract holds.
inline constexpr double kShardWidthInvariantCapacity =
    std::numeric_limits<double>::infinity();

/// One user-defined dispatch time point (2a).
struct TimePoint {
  /// Offset from round end when `relative`, else absolute sim time.
  SimTime when = 0;
  bool relative = true;
  /// Messages to send at this point (clamped to what is shelved).
  std::size_t count = 0;
  /// Dropout method 1: per-message failure probability at this point.
  double failure_probability = 0.0;
  /// Dropout method 2: randomly discard this many messages at this point.
  std::size_t random_discard = 0;
};

/// 2a. Specific time-point dispatching.
struct TimePointDispatch {
  std::vector<TimePoint> points;
};

/// 2b. Specific time-interval dispatching. The interval opens at round
/// end; its slots are sized, and its sends rate-limited, at
/// kDefaultCapacityPerSecond.
struct TimeIntervalDispatch {
  /// The user curve; its domain is scaled onto `interval`.
  RateFunction rate;
  /// Actual dispatch interval the domain maps to (e.g. 1 minute).
  SimDuration interval = Seconds(60.0);
  /// Dropout control applied per discretized slot.
  double failure_probability = 0.0;
};

using DispatchStrategy =
    std::variant<RealtimeAccumulated, TimePointDispatch, TimeIntervalDispatch>;

/// One slot of a discretized rate curve: `count` messages at `offset` from
/// the interval start.
struct SlotPlan {
  SimTime offset = 0;
  std::size_t count = 0;
};

/// Discretizes `rate` over `interval` into slots whose counts are
/// proportional to the per-slot area under the curve (AUC), subdividing
/// until no single dispatch point sends more than one second's worth of
/// the sender's throughput (capacity_per_second messages) and the slot
/// width is "sufficiently small" (§V-B). Counts sum exactly to
/// total_messages (largest-remainder rounding). The result converts
/// strategy 2b into the time-point mechanism 2a; residual burstiness is
/// smoothed by the dispatcher's rate limiter (Fig. 10b).
std::vector<SlotPlan> DiscretizeRate(const RateFunction& rate,
                                     SimDuration interval,
                                     std::size_t total_messages,
                                     double capacity_per_second,
                                     std::size_t min_slots = 50,
                                     std::size_t max_slots = 100000);

}  // namespace simdc::flow
