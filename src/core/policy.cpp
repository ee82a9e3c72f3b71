#include "core/policy.hpp"

namespace ndnp::core {

std::string_view to_string(LookupOutcome outcome) noexcept {
  switch (outcome) {
    case LookupOutcome::kExposedHit: return "ExposedHit";
    case LookupOutcome::kDelayedHit: return "DelayedHit";
    case LookupOutcome::kSimulatedMiss: return "SimulatedMiss";
    case LookupOutcome::kTrueMiss: return "TrueMiss";
  }
  return "?";
}

std::string_view counter_name(LookupOutcome outcome) noexcept {
  switch (outcome) {
    case LookupOutcome::kExposedHit: return "exposed_hits";
    case LookupOutcome::kDelayedHit: return "delayed_hits";
    case LookupOutcome::kSimulatedMiss: return "simulated_misses";
    case LookupOutcome::kTrueMiss: return "true_misses";
  }
  return "?";
}

void init_privacy_marking(cache::Entry& entry, const ndn::Interest& cause) noexcept {
  if (entry.data.producer_marked_private()) {
    entry.meta.treated_private = true;
    return;
  }
  if (cause.private_req) {
    entry.meta.treated_private = true;
  } else {
    entry.meta.treated_private = false;
    entry.meta.deprivatized = true;
  }
}

bool resolve_effective_privacy(cache::Entry& entry, const ndn::Interest& interest) noexcept {
  // Producer marking must always be honored by consumer-facing routers,
  // even for interests without the privacy bit.
  if (entry.data.producer_marked_private()) {
    entry.meta.treated_private = true;
    return true;
  }
  // Producer-unmarked content: the first non-private request is the
  // trigger that fixes the entry as non-private while cached.
  if (!interest.private_req) entry.meta.deprivatized = true;
  const bool effective = interest.private_req && !entry.meta.deprivatized;
  entry.meta.treated_private = effective;
  return effective;
}

}  // namespace ndnp::core
