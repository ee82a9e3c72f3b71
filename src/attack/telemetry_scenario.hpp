// Seeded sequential-probing scenario for exercising the online telemetry
// detectors (telemetry/detectors.hpp) against labelled ground truth.
//
// One LAN topology (Figure 3(a)) whose first-hop router R runs the paper's
// content-specific Always-Delay countermeasure and carries two traffic
// classes:
//
//  * Honest user U fetches Zipf-popular objects under a shared depth-2
//    namespace at exponentially distributed intervals for the whole run —
//    Poisson-like arrivals, exposed hits once the cache warms. This is the
//    baseline the detectors must stay silent on.
//  * Adversary Adv wakes at `attack_start` and runs the Section IV
//    sequential probe loop: a small set of privately requested objects in
//    the same namespace, re-probed round-robin at a fixed machine cadence.
//    Every completed probe is recorded as an attack_probe trace event
//    (detail "truth=attack") — the ground truth the scorecard
//    (sim::telemetry_scorecard) joins telemetry_alarm events against.
//
// The probes are private, so R's countermeasure serves them as *delayed*
// hits: the delayed-hit-ratio detector sees the countermeasure absorbing
// the probe stream, the regularity detector sees the fixed cadence on
// Adv's face, and the prefix-bucket CUSUM sees the shared namespace's
// exposed-hit rate shift. tools/telemetry_tool drives this scenario and
// gates CI on the resulting recall.
#pragma once

#include <cstdint>

#include "core/engine.hpp"
#include "telemetry/telemetry.hpp"
#include "util/sim_time.hpp"

namespace ndnp::attack {

struct TelemetryScenarioConfig {
  /// Zipf exponent of the honest catalogue's popularity.
  double zipf_exponent = 0.8;
  /// Total run length (honest traffic spans all of it).
  util::SimDuration duration = util::seconds(30);
  /// When the adversary's probe loop starts.
  util::SimTime attack_start = util::seconds(10);
  /// Fixed probe cadence (the machine-regular signature).
  util::SimDuration probe_period = util::millis(5);
  std::uint64_t seed = 7;
};

struct TelemetryScenarioResult {
  std::uint64_t honest_requests = 0;
  std::uint64_t honest_data = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_data = 0;
  /// Router lookup outcomes, for sanity checks.
  core::EngineStats router_outcomes;
  util::SimTime attack_start = 0;
  util::SimTime end_time = 0;
};

/// Run the scenario. When `hub` is non-null the router's lookups feed it
/// (sim::Forwarder::arm_telemetry), so its alarms land on the tracer bound
/// to the calling thread — bind a util::Tracer first to capture both the
/// alarms and the attack_probe ground truth. Deterministic per seed.
[[nodiscard]] TelemetryScenarioResult run_telemetry_scenario(
    const TelemetryScenarioConfig& config, telemetry::TelemetryHub* hub);

}  // namespace ndnp::attack
