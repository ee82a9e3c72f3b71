// Allocation-free streaming estimator primitives for the online telemetry
// layer (docs/OBSERVABILITY.md, "Online telemetry").
//
// Everything here is plain-data and O(1) per observation: the detector
// banks in telemetry/detectors.hpp keep one estimator set per face / per
// prefix bucket inside a preallocated vector, and the forwarder hot path
// updates them with a handful of flops and no allocation (the telemetry
// bench in bench_micro_ops measures the armed cost against the forwarder
// round trip; BENCH_telemetry.json pins it under 5%).
//
// The smoothing and CUSUM constants below are fixed: the detector banks
// (detectors.hpp) were calibrated with them against the attack-scenario
// recall floor and the clean-replay false-alarm ceiling, and nothing sets
// them per run.
//
// Like the flight recorder, estimators only observe: they never draw from
// util::Rng and never feed anything back into the simulation, so arming
// telemetry cannot move golden vectors.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/sim_time.hpp"

namespace ndnp::telemetry {

/// EWMA smoothing of every estimator (hit rate, delayed ratio, gaps).
inline constexpr double kEwmaAlpha = 0.05;
/// CUSUM per-sample slack: sustained mean shifts below this are free.
/// Together with the threshold this bounds the Bernoulli false-alarm rate
/// at roughly exp(-2 * drift * threshold / sigma^2) per reset cycle — keep
/// drift * threshold well above sigma^2 (<= 0.25).
inline constexpr double kCusumDrift = 0.15;
/// CUSUM alarm threshold on the accumulated statistic.
inline constexpr double kCusumThreshold = 12.0;
/// Adaptation rate of the CUSUM reference after arming (slow EWMA; a
/// ~300-sample time constant). Absorbs honest long-horizon hit-rate drift
/// — cache saturation — while abrupt collapses still accumulate.
inline constexpr double kCusumReferenceAlpha = 0.003;

/// Exponentially-weighted moving average of a scalar stream. The first
/// observation seeds the estimate directly (no zero-bias warm-up).
struct EwmaEstimator {
  double value = 0.0;
  std::uint64_t count = 0;

  void observe(double x) noexcept {
    ++count;
    value = count == 1 ? x : value + kEwmaAlpha * (x - value);
  }
};

/// Downward CUSUM change-point detector on a scalar stream: accumulates
/// shortfalls below `reference` beyond the per-sample slack kCusumDrift and
/// fires when the statistic exceeds kCusumThreshold, then resets (so a
/// sustained shift keeps re-firing at a bounded rate instead of once).
/// Only downward shifts count — the right mode for hit-rate streams, where
/// cache warm-up drifts the mean *up* and only a collapse is anomalous.
/// The reference itself follows the stream as a slow EWMA
/// (kCusumReferenceAlpha), so legitimate long-horizon drift (a cache
/// saturating and shedding hit rate over thousands of requests) is
/// absorbed while an abrupt shift outruns the adaptation and still
/// accumulates. The caller arms the detector once its warm-up mean is
/// known; observe() before that is a no-op returning false.
struct CusumDetector {
  double reference = 0.0;
  bool armed = false;
  double neg = 0.0;
  std::uint64_t alarms = 0;

  void arm(double ref) noexcept {
    reference = ref;
    armed = true;
  }

  /// Returns true when this observation pushes the statistic past threshold.
  bool observe(double x) noexcept {
    if (!armed) return false;
    neg = std::max(0.0, neg + (reference - x - kCusumDrift));
    reference += kCusumReferenceAlpha * (x - reference);
    if (neg > kCusumThreshold) {
      ++alarms;
      neg = 0.0;
      return true;
    }
    return false;
  }

  [[nodiscard]] double statistic() const noexcept { return neg; }
};

/// Inter-arrival regularity: EWMA of the gap and of its absolute deviation.
/// Machine-paced probing drives the coefficient of variation toward 0; for
/// Poisson arrivals the mean-absolute-deviation CV settles near 2/e ~ 0.74,
/// so a small threshold separates the two cleanly.
struct InterArrivalEstimator {
  util::SimTime last_arrival = util::kTimeUnset;
  EwmaEstimator gap;
  EwmaEstimator gap_abs_dev;

  void observe(util::SimTime now) noexcept {
    if (last_arrival != util::kTimeUnset && now >= last_arrival) {
      const double g = static_cast<double>(now - last_arrival);
      gap.observe(g);
      gap_abs_dev.observe(std::abs(g - gap.value));
    }
    last_arrival = now;
  }

  [[nodiscard]] std::uint64_t gaps() const noexcept { return gap.count; }

  /// Coefficient of variation proxy: mean |gap - mean| / mean gap.
  /// Returns a large sentinel before any gap is seen (never "regular").
  [[nodiscard]] double regularity_cv() const noexcept {
    if (gap.count == 0 || gap.value <= 0.0) return 1e9;
    return gap_abs_dev.value / gap.value;
  }
};

}  // namespace ndnp::telemetry
