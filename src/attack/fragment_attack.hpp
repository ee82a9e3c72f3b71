// Fragment-correlation amplification (Section III).
//
// Large NDN content is split into many content objects that are fetched
// together; whether ONE fragment sits in R's cache is enough to decide
// whether the whole content was requested. With per-object success
// probability p (only ~0.59 in the producer-adjacent WAN setting), probing
// n fragments amplifies the attack — the paper's idealized analysis gives
// 1 - (1-p)^n, pushing 0.59 to ~0.999 at n = 8.
//
// This module runs the attack end-to-end in the network simulator. The
// adversary averages its n per-fragment RTTs and compares the mean against
// a calibrated hit/miss midpoint: since all fragments share the same
// ground truth, averaging shrinks the path-jitter noise by sqrt(n) — the
// operational counterpart of the paper's independence argument (a naive
// per-fragment OR rule would amplify false alarms just as fast as
// detections when the distributions overlap). Both the measured amplified
// accuracy and the paper's analytic 1-(1-p)^n curve are reported.
#pragma once

#include <cstdint>
#include <functional>

#include "attack/timing_attack.hpp"
#include "sim/topology.hpp"

namespace ndnp::attack {

struct FragmentAttackConfig {
  std::size_t trials = 200;
  /// Fragments per content (the paper's example uses 8).
  std::size_t n_fragments = 8;
  /// Scenario factory (typically producer_adjacent_scenario_params).
  std::function<sim::ScenarioParams(std::uint64_t seed)> scenario_params;
  /// Calibration double-fetches per trial used to place the threshold
  /// (midpoint of the mean miss and mean hit reference RTTs).
  std::size_t calibration_probes = 25;
  std::uint64_t seed = 99;
};

/// The rates score the verdict "the victim requested the content"; the
/// accuracy is the operational amplified success rate.
struct FragmentAttackResult : DetectionRates {
  /// Single-fragment probe accuracy with the same threshold (the paper's
  /// per-object p, ~0.59 in the producer-adjacent setting).
  double per_object_accuracy = 0.0;
  /// The paper's idealized amplification 1 - (1 - p)^n evaluated at the
  /// measured per-object accuracy.
  double analytic_success = 0.0;
};

[[nodiscard]] FragmentAttackResult run_fragment_attack(const FragmentAttackConfig& config);

}  // namespace ndnp::attack
