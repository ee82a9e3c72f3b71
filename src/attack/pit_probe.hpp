// PIT-collapse side channel (extension beyond the paper).
//
// The paper's countermeasures guard the Content Store, but NDN's Pending
// Interest Table leaks too: if the victim's interest for C is still
// outstanding at the shared router R when the adversary probes the same
// name, R *collapses* the probe onto the pending entry and the adversary
// receives Data after only the residual upstream delay — measurably less
// than a full fetch. The adversary thus detects an in-flight request in
// real time, a strictly stronger signal than "recently cached".
//
// Crucially, every CS-side policy (Always-Delay, Random-Cache) is blind to
// this: collapsing happens on the miss path *before* the content exists in
// the cache. The run function therefore accepts an optional router policy
// to demonstrate that only the unpredictable-name countermeasure (which
// denies the adversary the name itself) closes the channel.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "attack/timing_attack.hpp"
#include "core/policy.hpp"

namespace ndnp::attack {

struct PitProbeConfig {
  /// Must be positive: the attack throws std::invalid_argument at 0.
  std::size_t trials = 100;
  /// CS privacy policy at R (null = NoPrivacy). The attack succeeds
  /// regardless — that is the point.
  std::function<std::unique_ptr<core::CachePrivacyPolicy>()> router_policy;
  /// Enable the PIT-side countermeasure at R (ForwarderConfig::
  /// pad_collapsed_private): collapsed private interests are delayed to
  /// full-fetch latency, closing the channel.
  bool pad_collapsed_private = false;
  std::uint64_t seed = 3;
};

/// Scores the verdict "the victim's request is in flight".
using PitProbeResult = DetectionRates;

/// Play the in-flight-detection game: per trial the victim requests a
/// far-away content with probability 1/2, and the adversary probes the
/// same name a fraction of an RTT later, deciding "in flight" iff its
/// measured delay undercuts the calibrated full-fetch RTT.
[[nodiscard]] PitProbeResult run_pit_collapse_attack(const PitProbeConfig& config);

}  // namespace ndnp::attack
