// Black-box privacy auditing of cache-management policies.
//
// Given any CachePrivacyPolicy — including third-party ones this library
// has never seen — the auditor runs the Definition IV.3 game against a
// real CachePrivacyEngine, estimates the adversary-visible output
// distributions under "never requested" (S_0) and "requested x times"
// (S_x), and reports the empirical privacy budget: the Bayes-optimal
// distinguishing accuracy and the minimal epsilon at a chosen delta.
// For the library's own Random-Cache schemes the results converge to the
// Theorem VI.1/VI.3 bounds (tested); for anything else they are an honest
// Monte-Carlo measurement with ~1/sqrt(rounds) noise.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/indistinguishability.hpp"
#include "core/policy.hpp"

namespace ndnp::core {

struct AuditConfig {
  /// Prior honest requests in the "requested" state (x of Definition IV.3;
  /// audit every x in 1..k to certify a (k, ., .) budget).
  std::int64_t x = 1;
  /// Probes per game round.
  std::int64_t probes = 32;
  /// Monte-Carlo rounds per state.
  std::size_t rounds = 20'000;
  /// Delta budget at which min-epsilon is reported.
  double delta = 0.05;
  /// Content is producer-marked private during the audit.
  bool producer_private = true;
  std::uint64_t seed = 1;
};

struct AuditReport {
  /// Empirical outcome distributions (miss-run length over `probes`).
  DiscreteDist never_requested;   // S_0
  DiscreteDist requested_x;       // S_x
  /// 1/2 + TV/2 over the empirical distributions.
  double bayes_accuracy = 0.0;
  /// Minimal epsilon achieving the configured delta (may be +inf).
  double epsilon_at_delta = 0.0;
  /// Delta at the near-zero epsilon slack (the one-sided leakage, i.e.
  /// the mass of outcomes possible in one state but not the other).
  double delta_near_zero_epsilon = 0.0;
};

/// Audit `policy_factory` (a fresh policy instance is created per game
/// round so rounds are independent). The adversary observes only response
/// delays, exactly like a network attacker.
[[nodiscard]] AuditReport audit_policy(
    const std::function<std::unique_ptr<CachePrivacyPolicy>()>& policy_factory,
    const AuditConfig& config);

}  // namespace ndnp::core
