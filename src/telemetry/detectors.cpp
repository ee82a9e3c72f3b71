#include "telemetry/detectors.hpp"

namespace ndnp::telemetry {

std::string_view to_string(DetectorKind kind) noexcept {
  switch (kind) {
    case DetectorKind::kHitRateShift: return "hit_rate_shift";
    case DetectorKind::kArrivalRegularity: return "arrival_regularity";
    case DetectorKind::kDelayedHitRatio: return "delayed_hit_ratio";
  }
  return "?";
}

DetectorBank::DetectorBank(BankScope scope)
    : scope_(scope), buckets_(scope == BankScope::kFace ? kFaceBuckets : kPrefixBuckets) {}

bool DetectorBank::cooled_down(const BucketState& state, DetectorKind kind,
                               util::SimTime now) noexcept {
  const auto k = static_cast<std::size_t>(kind);
  return state.last_alarm[k] == util::kTimeUnset || now - state.last_alarm[k] >= kAlarmCooldown;
}

std::size_t DetectorBank::observe(std::uint64_t key, core::LookupOutcome outcome,
                                  util::SimTime now, AlarmEvent out[kDetectorKinds]) {
  BucketState& state = buckets_[bucket_of(key)];
  ++observations_;
  std::size_t fired = 0;
  const auto raise = [&](DetectorKind kind, double statistic) {
    if (kind == DetectorKind::kDelayedHitRatio && scope_ != BankScope::kFace) return;
    if (!cooled_down(state, kind, now)) return;
    state.last_alarm[static_cast<std::size_t>(kind)] = now;
    ++alarms_[static_cast<std::size_t>(kind)];
    out[fired++] = AlarmEvent{kind, statistic};
  };

  // Hit-rate shift: warm-up seeds the CUSUM reference from the bucket's
  // own early mean, then every exposed-hit indicator feeds the detector.
  const double hit = outcome == core::LookupOutcome::kExposedHit ? 1.0 : 0.0;
  state.hit_rate.observe(hit);
  if (state.hit_rate.count <= kWarmupSamples) {
    state.warmup_sum += hit;
    if (state.hit_rate.count == kWarmupSamples)
      state.cusum.arm(state.warmup_sum / static_cast<double>(kWarmupSamples));
  } else if (state.cusum.observe(hit)) {
    raise(DetectorKind::kHitRateShift, state.cusum.statistic());
  }

  // Arrival regularity over the bucket's inter-arrival gaps.
  state.arrival.observe(now);
  if (state.arrival.gaps() >= kMinGapSamples &&
      state.arrival.regularity_cv() < kRegularityCvMax)
    raise(DetectorKind::kArrivalRegularity, state.arrival.regularity_cv());

  // Delayed share of cache-served traffic (the random-delay countermeasure
  // absorbing a probe stream shows up here).
  if (outcome == core::LookupOutcome::kExposedHit ||
      outcome == core::LookupOutcome::kDelayedHit) {
    ++state.served;
    state.delayed_ratio.observe(outcome == core::LookupOutcome::kDelayedHit ? 1.0 : 0.0);
    if (state.served >= kMinServedSamples && state.delayed_ratio.value > kDelayedRatioMax)
      raise(DetectorKind::kDelayedHitRatio, state.delayed_ratio.value);
  }
  return fired;
}

double DetectorBank::max_cusum_statistic() const noexcept {
  double best = 0.0;
  for (const BucketState& state : buckets_)
    if (state.cusum.statistic() > best) best = state.cusum.statistic();
  return best;
}

}  // namespace ndnp::telemetry
