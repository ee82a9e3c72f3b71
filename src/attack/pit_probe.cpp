#include "attack/pit_probe.hpp"

#include <stdexcept>

#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace ndnp::attack {

namespace {

constexpr std::string_view kAttack = "pit_collapse_attack";

/// Far-away producer so requests stay in flight long enough to probe.
sim::ScenarioParams pit_probe_scenario(std::uint64_t seed,
                                       const PitProbeConfig& config) {
  sim::ScenarioParams params = sim::lan_scenario_params(seed);
  params.core_link = sim::wan_link(/*latency_ms=*/25.0, /*jitter_median_ms=*/0.5,
                                   /*jitter_sigma=*/0.4);
  params.core_hops = 1;  // P one (slow) hop past R: no upstream caches
  if (config.router_policy) params.router_policy = config.router_policy;
  params.router_config.pad_collapsed_private = config.pad_collapsed_private;
  params.producer_config.mark_private = true;
  return params;
}

}  // namespace

PitProbeResult run_pit_collapse_attack(const PitProbeConfig& config) {
  if (config.trials == 0) throw std::invalid_argument("run_pit_collapse_attack: trials is 0");
  util::Rng coin(config.seed ^ 0xa0761d6478bd642fULL);
  DetectionTally tally;

  for (std::size_t trial = 0; trial < config.trials; ++trial) {
    const auto scenario =
        sim::make_probe_scenario(pit_probe_scenario(config.seed + trial, config));
    sim::Scheduler& sched = scenario->topology.scheduler();
    sim::Consumer& adversary = *scenario->adversary;
    const ndn::Name base = scenario->producer->prefix().append(std::string("t").append(std::to_string(trial)));

    // Calibrate the full-fetch RTT on a throwaway name.
    const double full_ms =
        util::to_millis(timed_fetch(adversary, base.append("calib"), kAttack));

    // Victim requests the target with probability 1/2; the adversary
    // probes the same name ~20% of an RTT later — well before any Data
    // could have arrived.
    const ndn::Name target = base.append("target");
    const bool requested = coin.bernoulli(0.5);
    const util::SimDuration probe_offset =
        static_cast<util::SimDuration>(0.2 * full_ms * 1e6);

    if (requested) scenario->user->fetch(target, [](const ndn::Data&, util::SimDuration) {});
    sched.run_until(sched.now() + probe_offset);
    const double probe_ms = util::to_millis(timed_fetch(adversary, target, kAttack));

    // In-flight collapse returns after the residual delay (~80% of the
    // RTT); a genuine miss costs the full RTT. Split the difference.
    tally.add(probe_ms < 0.9 * full_ms, requested);
  }

  return tally.rates();
}

}  // namespace ndnp::attack
