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
// The delayed-hit-ratio detector fires only on the face bank: it profiles
// a *requester* (a face whose cache-served traffic is dominated by the
// countermeasure's delays is probing protected content), while a prefix
// bucket dominated by one private object reaches the same ratio
// legitimately.
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

[[nodiscard]] std::string_view to_string(DetectorKind kind) noexcept;

/// What a bank's buckets are keyed by.
enum class BankScope : std::uint8_t {
  kFace,    // arrival face (or trace user)
  kPrefix,  // hash of the content name's depth-2 prefix
};

// Detector constants (docs/OBSERVABILITY.md, "Online telemetry").
/// Buckets of the face bank and of the prefix bank.
inline constexpr std::size_t kFaceBuckets = 32;
inline constexpr std::size_t kPrefixBuckets = 64;
/// Observations that seed a bucket's hit-rate baseline before the CUSUM
/// arms. Larger = more tolerant of cache warm-up drift.
inline constexpr std::uint64_t kWarmupSamples = 256;
/// Gaps needed before the regularity detector judges a bucket.
inline constexpr std::uint64_t kMinGapSamples = 24;
/// Fire arrival_regularity while gap CV stays below this (Poisson ~0.74).
inline constexpr double kRegularityCvMax = 0.15;
/// Cache-served observations before delayed_hit_ratio judges a bucket.
inline constexpr std::uint64_t kMinServedSamples = 64;
/// Fire delayed_hit_ratio when the delayed share of cache-served traffic
/// exceeds this. High on purpose: honest traffic with temporal locality
/// produces delayed-hit streaks on private objects; only a requester whose
/// served traffic is *dominated* by delayed hits is hammering protected
/// content.
inline constexpr double kDelayedRatioMax = 0.9;
/// Per-(bucket, detector) sim-time alarm cooldown.
inline constexpr util::SimDuration kAlarmCooldown = util::millis(10);

/// One alarm fired by observe(); `statistic` is the detector's current
/// decision statistic (CUSUM level, gap CV, delayed ratio).
struct AlarmEvent {
  DetectorKind kind = DetectorKind::kHitRateShift;
  double statistic = 0.0;
};

class DetectorBank {
 public:
  /// The scope fixes the bank size up front (kFaceBuckets or
  /// kPrefixBuckets) — per-observation updates are allocation-free from
  /// then on. A prefix bank never fires delayed_hit_ratio, but still
  /// updates its estimators, so the time series stays complete.
  explicit DetectorBank(BankScope scope);

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

  /// Largest CUSUM statistic across all buckets (time-series probe).
  [[nodiscard]] double max_cusum_statistic() const noexcept;

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

  [[nodiscard]] static bool cooled_down(const BucketState& state, DetectorKind kind,
                                        util::SimTime now) noexcept;

  BankScope scope_;
  std::vector<BucketState> buckets_;
  std::uint64_t observations_ = 0;
  std::uint64_t alarms_[kDetectorKinds] = {0, 0, 0};
};

}  // namespace ndnp::telemetry
