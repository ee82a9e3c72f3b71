// Differential fuzzing of the forwarder against a naive reference model.
//
// run_differential_episode() drives a single sim::Forwarder (zero
// processing/link delay) with a random op stream — interests from two
// downstream faces, Data/NACKs from upstream, hostile field values — while
// ReferenceForwarder (plain std::map PIT + LRU CS, the spirit of
// tests/test_cs_differential.cpp) predicts every emitted packet and every
// counter. Any divergence is reported with the op index and a
// human-readable description. The episode uses only its seed for
// randomness, so a failure reproduces from the seed alone (tools/chaos_tool
// --mode differential replays one episode).
//
// Part of the ndnp_oracle target: the tests, bench_micro_ops and chaos_tool
// link it; the shipped libraries do not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ndnp::sim {

struct DifferentialResult {
  std::size_t ops = 0;
  std::size_t divergences = 0;
  /// Op index and description of the first divergence ("" when clean).
  std::string first_divergence;

  [[nodiscard]] bool ok() const noexcept { return divergences == 0; }
};

/// Run one seeded differential episode: `num_ops` random operations against
/// a real Forwarder, cross-checked op-by-op against the naive reference
/// model. Stops at the first divergence.
[[nodiscard]] DifferentialResult run_differential_episode(std::uint64_t seed,
                                                          std::size_t num_ops = 1500);

}  // namespace ndnp::sim
