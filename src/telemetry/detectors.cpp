#include "telemetry/detectors.hpp"

#include <stdexcept>

namespace ndnp::telemetry {

std::string_view to_string(DetectorKind kind) noexcept {
  switch (kind) {
    case DetectorKind::kHitRateShift: return "hit_rate_shift";
    case DetectorKind::kArrivalRegularity: return "arrival_regularity";
    case DetectorKind::kDelayedHitRatio: return "delayed_hit_ratio";
  }
  return "?";
}

DetectorBank::DetectorBank(std::size_t buckets, const DetectorTuning& tuning,
                           std::uint8_t enabled)
    : tuning_(tuning), enabled_(enabled) {
  if (buckets == 0) throw std::invalid_argument("DetectorBank: buckets must be positive");
  buckets_.resize(buckets);
  for (BucketState& state : buckets_) {
    state.hit_rate.alpha = tuning_.ewma_alpha;
    state.delayed_ratio.alpha = tuning_.ewma_alpha;
    state.cusum.drift = tuning_.cusum_drift;
    state.cusum.threshold = tuning_.cusum_threshold;
    state.cusum.reference_alpha = tuning_.cusum_reference_alpha;
    // Downward-only: cache warm-up legitimately drifts hit rates *up*, so
    // only a collapse below the warm-up baseline (the cache-pollution
    // signature) alarms.
    state.cusum.two_sided = false;
  }
}

bool DetectorBank::cooled_down(BucketState& state, DetectorKind kind,
                               util::SimTime now) const noexcept {
  const auto k = static_cast<std::size_t>(kind);
  return state.last_alarm[k] == util::kTimeUnset ||
         now - state.last_alarm[k] >= tuning_.alarm_cooldown;
}

std::size_t DetectorBank::observe(std::uint64_t key, core::LookupOutcome outcome,
                                  util::SimTime now, AlarmEvent out[kDetectorKinds]) {
  BucketState& state = buckets_[bucket_of(key)];
  ++observations_;
  std::size_t fired = 0;
  const auto raise = [&](DetectorKind kind, double statistic) {
    if ((enabled_ & detector_bit(kind)) == 0) return;
    if (!cooled_down(state, kind, now)) return;
    state.last_alarm[static_cast<std::size_t>(kind)] = now;
    ++alarms_[static_cast<std::size_t>(kind)];
    out[fired++] = AlarmEvent{kind, statistic};
  };

  // Hit-rate shift: warm-up seeds the CUSUM reference from the bucket's
  // own early mean, then every exposed-hit indicator feeds the detector.
  const double hit = outcome == core::LookupOutcome::kExposedHit ? 1.0 : 0.0;
  state.hit_rate.observe(hit);
  if (state.hit_rate.count <= tuning_.warmup_samples) {
    state.warmup_sum += hit;
    if (state.hit_rate.count == tuning_.warmup_samples)
      state.cusum.arm(state.warmup_sum / static_cast<double>(tuning_.warmup_samples));
  } else if (state.cusum.observe(hit)) {
    raise(DetectorKind::kHitRateShift, state.cusum.statistic());
  }

  // Arrival regularity over the bucket's inter-arrival gaps.
  state.arrival.observe(now);
  if (state.arrival.gaps() >= tuning_.min_gap_samples &&
      state.arrival.regularity_cv() < tuning_.regularity_cv_max)
    raise(DetectorKind::kArrivalRegularity, state.arrival.regularity_cv());

  // Delayed share of cache-served traffic (the random-delay countermeasure
  // absorbing a probe stream shows up here).
  if (outcome == core::LookupOutcome::kExposedHit ||
      outcome == core::LookupOutcome::kDelayedHit) {
    ++state.served;
    state.delayed_ratio.observe(outcome == core::LookupOutcome::kDelayedHit ? 1.0 : 0.0);
    if (state.served >= tuning_.min_served_samples &&
        state.delayed_ratio.value > tuning_.delayed_ratio_max)
      raise(DetectorKind::kDelayedHitRatio, state.delayed_ratio.value);
  }
  return fired;
}

double DetectorBank::bucket_hit_rate(std::size_t bucket) const {
  return buckets_.at(bucket).hit_rate.value;
}

double DetectorBank::max_cusum_statistic() const noexcept {
  double best = 0.0;
  for (const BucketState& state : buckets_)
    if (state.cusum.statistic() > best) best = state.cusum.statistic();
  return best;
}

void DetectorBank::merge_from(const DetectorBank& other) {
  if (other.buckets_.size() != buckets_.size())
    throw std::invalid_argument("DetectorBank::merge_from: bucket count mismatch");
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    BucketState& mine = buckets_[i];
    const BucketState& theirs = other.buckets_[i];
    mine.hit_rate = EwmaEstimator::merged(mine.hit_rate, theirs.hit_rate);
    mine.warmup_sum += theirs.warmup_sum;
    mine.cusum = CusumDetector::merged(mine.cusum, theirs.cusum);
    mine.arrival = InterArrivalEstimator::merged(mine.arrival, theirs.arrival);
    mine.delayed_ratio = EwmaEstimator::merged(mine.delayed_ratio, theirs.delayed_ratio);
    mine.served += theirs.served;
    for (std::size_t k = 0; k < kDetectorKinds; ++k) {
      if (mine.last_alarm[k] == util::kTimeUnset)
        mine.last_alarm[k] = theirs.last_alarm[k];
      else if (theirs.last_alarm[k] != util::kTimeUnset)
        mine.last_alarm[k] = std::max(mine.last_alarm[k], theirs.last_alarm[k]);
    }
  }
  observations_ += other.observations_;
  for (std::size_t k = 0; k < kDetectorKinds; ++k) alarms_[k] += other.alarms_[k];
}

}  // namespace ndnp::telemetry
