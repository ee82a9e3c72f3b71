#include "attack/probes.hpp"

#include "sim/fetch_util.hpp"

namespace ndnp::attack {

std::string_view to_string(ScopeProbeVerdict verdict) noexcept {
  switch (verdict) {
    case ScopeProbeVerdict::kCached: return "cached";
    case ScopeProbeVerdict::kNotCached: return "not-cached";
    case ScopeProbeVerdict::kInconclusive: return "inconclusive";
  }
  return "?";
}

bool detect_scope_honoring(sim::ProbeScenario& scenario, const ndn::Name& fresh_name,
                           util::SimDuration timeout) {
  // A fresh name cannot be in any cache: Data can only arrive if the
  // router forwarded the scope=2 interest, i.e. ignored the field.
  return !run_scope_probe(scenario, fresh_name, /*router_honors_scope=*/false, timeout)
              .data_returned;
}

ScopeProbeResult run_scope_probe(sim::ProbeScenario& scenario, const ndn::Name& name,
                                 bool router_honors_scope, util::SimDuration timeout) {
  ScopeProbeResult result;
  // The consumer drops the interest at the deadline if no Data came.
  result.data_returned =
      sim::fetch_blocking(*scenario.adversary, {.name = name, .scope = 2}, timeout).has_value();
  if (!router_honors_scope) {
    result.verdict = ScopeProbeVerdict::kInconclusive;
  } else {
    result.verdict =
        result.data_returned ? ScopeProbeVerdict::kCached : ScopeProbeVerdict::kNotCached;
  }
  return result;
}

}  // namespace ndnp::attack
