// Streaming per-bucket anomaly detectors over cache-lookup outcomes.
//
// A DetectorBank keeps one estimator set (estimators.hpp) per bucket in a
// preallocated vector — banks are keyed by arrival face or by content
// prefix hash — and judges every observation with three detectors derived
// from the paper's own attack surface:
//
//  * hit_rate_shift      — CUSUM change-point on the exposed-hit indicator.
//                          Sequential probing (Section IV) populates then
//                          re-probes content, stepping a bucket's hit rate;
//                          the CUSUM catches the step against the bucket's
//                          own warm-up baseline.
//  * arrival_regularity  — machine-paced probes arrive with near-constant
//                          gaps; honest (Poisson-like) traffic keeps the
//                          gap CV near 2/e. Fires while the CV stays under
//                          the tuning threshold.
//  * delayed_hit_ratio   — keyed to the paper's random-delay countermeasure:
//                          a requester whose cache-served traffic is mostly
//                          *delayed* hits is hammering protected (private)
//                          content — the countermeasure is absorbing a
//                          probe stream.
//
// Alarms are rate-limited per (bucket, detector) by a sim-time cooldown so
// a sustained anomaly re-fires at a bounded, window-friendly rate. The
// caller (telemetry::TelemetryHub) turns fired alarms into telemetry_alarm
// trace events; this layer stays trace- and simulation-free.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/policy.hpp"
#include "telemetry/estimators.hpp"
#include "util/sim_time.hpp"

namespace ndnp::telemetry {

enum class DetectorKind : std::uint8_t {
  kHitRateShift = 0,
  kArrivalRegularity = 1,
  kDelayedHitRatio = 2,
};
inline constexpr std::size_t kDetectorKinds = 3;

/// Bit for `kind` in a DetectorBank enable mask.
[[nodiscard]] constexpr std::uint8_t detector_bit(DetectorKind kind) noexcept {
  return static_cast<std::uint8_t>(1u << static_cast<std::uint8_t>(kind));
}
inline constexpr std::uint8_t kAllDetectors = 0b111;

[[nodiscard]] std::string_view to_string(DetectorKind kind) noexcept;

/// Detector knobs (docs/OBSERVABILITY.md documents each one).
struct DetectorTuning {
  /// EWMA smoothing for hit-rate / delayed-ratio estimators.
  double ewma_alpha = 0.05;
  /// Observations that seed a bucket's hit-rate baseline before the CUSUM
  /// arms. Larger = more tolerant of cache warm-up drift.
  std::uint64_t warmup_samples = 256;
  /// CUSUM per-sample slack: sustained mean shifts below this are free.
  /// Together with the threshold this bounds the Bernoulli false-alarm
  /// rate at roughly exp(-2 * drift * threshold / sigma^2) per reset
  /// cycle — keep drift * threshold well above sigma^2 (<= 0.25).
  double cusum_drift = 0.15;
  /// CUSUM alarm threshold on the accumulated statistic.
  double cusum_threshold = 12.0;
  /// Adaptation rate of the CUSUM reference after arming (slow EWMA; a
  /// ~300-sample time constant). Absorbs honest long-horizon hit-rate
  /// drift — cache saturation — while abrupt collapses still accumulate.
  double cusum_reference_alpha = 0.003;
  /// Gaps needed before the regularity detector judges a bucket.
  std::uint64_t min_gap_samples = 24;
  /// Fire arrival_regularity while gap CV stays below this (Poisson ~0.74).
  double regularity_cv_max = 0.15;
  /// Cache-served observations before delayed_hit_ratio judges a bucket.
  std::uint64_t min_served_samples = 64;
  /// Fire delayed_hit_ratio when the delayed share of cache-served
  /// traffic exceeds this. High on purpose: honest traffic with temporal
  /// locality produces delayed-hit streaks on private objects; only a
  /// requester whose served traffic is *dominated* by delayed hits is
  /// hammering protected content.
  double delayed_ratio_max = 0.9;
  /// Per-(bucket, detector) sim-time alarm cooldown.
  util::SimDuration alarm_cooldown = util::millis(10);
};

/// One alarm fired by observe(); `statistic` is the detector's current
/// decision statistic (CUSUM level, gap CV, delayed ratio).
struct AlarmEvent {
  DetectorKind kind = DetectorKind::kHitRateShift;
  double statistic = 0.0;
};

class DetectorBank {
 public:
  /// `buckets` fixes the bank size up front — per-observation updates are
  /// allocation-free from then on. `enabled` masks which detectors this
  /// bank may fire (detector_bit); disabled detectors still update their
  /// estimators (the time series stays complete) but never alarm.
  DetectorBank(std::size_t buckets, const DetectorTuning& tuning,
               std::uint8_t enabled = kAllDetectors);

  /// Fold one lookup outcome into bucket `key % buckets()`. Fired alarms
  /// (at most one per detector) are written to `out`; returns how many.
  std::size_t observe(std::uint64_t key, core::LookupOutcome outcome, util::SimTime now,
                      AlarmEvent out[kDetectorKinds]);

  [[nodiscard]] std::size_t buckets() const noexcept { return buckets_.size(); }
  [[nodiscard]] std::size_t bucket_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(key % buckets_.size());
  }
  [[nodiscard]] std::uint64_t observations() const noexcept { return observations_; }
  [[nodiscard]] std::uint64_t alarms(DetectorKind kind) const noexcept {
    return alarms_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t alarms_total() const noexcept {
    return alarms_[0] + alarms_[1] + alarms_[2];
  }

  /// Current hit-rate EWMA of a bucket (diagnostic / time-series probe).
  [[nodiscard]] double bucket_hit_rate(std::size_t bucket) const;
  /// Largest CUSUM statistic across all buckets (time-series probe).
  [[nodiscard]] double max_cusum_statistic() const noexcept;

  /// Fold another bank's per-bucket state into this one (same bucket count
  /// and tuning required; used to combine per-shard banks). Associative
  /// across banks up to FP rounding — see estimators.hpp.
  void merge_from(const DetectorBank& other);

 private:
  struct BucketState {
    EwmaEstimator hit_rate;
    double warmup_sum = 0.0;
    CusumDetector cusum;
    InterArrivalEstimator arrival;
    EwmaEstimator delayed_ratio;
    std::uint64_t served = 0;
    util::SimTime last_alarm[kDetectorKinds] = {util::kTimeUnset, util::kTimeUnset,
                                                util::kTimeUnset};
  };

  [[nodiscard]] bool cooled_down(BucketState& state, DetectorKind kind,
                                 util::SimTime now) const noexcept;

  DetectorTuning tuning_;
  std::uint8_t enabled_;
  std::vector<BucketState> buckets_;
  std::uint64_t observations_ = 0;
  std::uint64_t alarms_[kDetectorKinds] = {0, 0, 0};
};

}  // namespace ndnp::telemetry
