// Model-based chaos fuzzing for the forwarder stack.
//
// run_chaos_episode() builds a random consumer—forwarder-chain—producer
// topology, turns on the fault engine (sim/faults.hpp) on every link,
// schedules node faults (CS wipes, PIT squeezes) and a random interest
// workload, runs the simulation to quiescence, then checks every structural
// invariant (Forwarder::check_invariants). The episode digest fingerprints
// the full end state so parallel sweeps can prove byte-identical replay
// across --jobs counts.
//
// The episode uses only its seed for randomness, so a failure reproduces
// from the seed alone (tools/chaos_tool replays one episode with full
// logging). Its differential twin, run_differential_episode, checks one
// Forwarder against a naive reference model and lives in the test oracle
// (oracle/differential.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "sim/faults.hpp"
#include "util/sim_time.hpp"

namespace ndnp::sim {

struct ChaosEpisodeOptions {
  std::uint64_t seed = 1;
  /// Interests the consumer expresses over the workload window.
  std::size_t interests = 400;
};

struct ChaosEpisodeResult {
  /// FNV-1a fingerprint of the complete end state (all forwarder, cache,
  /// fault and application counters in a fixed order). Two runs of the
  /// same seed must produce the same digest, regardless of host
  /// parallelism.
  std::uint64_t digest = 0;
  /// Invariant violations detected during the episode (0 = clean).
  std::uint64_t invariant_violations = 0;
  /// First violation message ("" when clean).
  std::string violation;

  // Episode shape + outcome summary.
  std::size_t forwarders = 0;
  std::uint64_t interests_sent = 0;
  std::uint64_t data_received = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t consumer_nacks = 0;
  std::uint64_t events_processed = 0;
  util::SimTime end_time = 0;
  LinkFaultCounters link_faults;  // summed over every face of every node
  NodeFaultCounters node_faults;

  [[nodiscard]] bool ok() const noexcept {
    return invariant_violations == 0 && violation.empty();
  }
};

/// Run one seeded chaos episode. Never throws: invariant violations are
/// caught and reported in the result.
[[nodiscard]] ChaosEpisodeResult run_chaos_episode(const ChaosEpisodeOptions& options);

}  // namespace ndnp::sim
