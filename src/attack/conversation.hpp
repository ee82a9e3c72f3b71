// Conversation detection (Section I): "a combination of these two attacks
// can be used to learn whether two parties (Alice and Bob) have been
// recently, or still are, involved in a two-way interactive communication,
// e.g., voice or SSH."
//
// Alice and Bob exchange per-direction frame streams through a router the
// adversary shares. With predictable names (/alice/call/<seq>), a single
// *prefix* interest from the adversary matches ANY cached frame of the
// stream — no timing measurement needed, the cache itself answers. The
// Section V-A countermeasure (unpredictable names, exact-match-only
// content) removes exactly this oracle: the adversary can neither guess a
// name nor get prefix matches, and detection collapses to coin flipping.
#pragma once

#include <cstdint>

#include "attack/timing_attack.hpp"

namespace ndnp::attack {

struct ConversationAttackConfig {
  /// Must be positive: the attack throws std::invalid_argument at 0.
  std::size_t trials = 100;
  /// Frames each party produces per trial while the call is active.
  std::size_t frames = 30;
  /// Whether Alice and Bob protect the session with unpredictable names.
  bool unpredictable_names = false;
  std::uint64_t seed = 17;
};

/// Scores the verdict "a call is ongoing".
using ConversationAttackResult = DetectionRates;

/// Run the detection game: per trial Alice and Bob hold a call with
/// probability 1/2; the adversary then probes both parties' call prefixes
/// through the shared router and declares "ongoing" iff any probe returns
/// quickly from the cache.
[[nodiscard]] ConversationAttackResult run_conversation_attack(
    const ConversationAttackConfig& config);

}  // namespace ndnp::attack
