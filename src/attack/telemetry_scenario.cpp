#include "attack/telemetry_scenario.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "attack/timing_attack.hpp"
#include "core/policies.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace ndnp::attack {

TelemetryScenarioResult run_telemetry_scenario(const TelemetryScenarioConfig& config,
                                               telemetry::TelemetryHub* hub) {
  if (config.probe_period <= 0)
    throw std::invalid_argument("telemetry_scenario: probe_period must be positive");
  if (config.attack_start < 0 || config.attack_start >= config.duration)
    throw std::invalid_argument("telemetry_scenario: attack_start outside the run");

  sim::ScenarioParams params = sim::lan_scenario_params(config.seed);
  // The router runs the paper's content-specific Always-Delay
  // countermeasure: private lookups on cached content are served behind an
  // artificial delay instead of at hit speed.
  params.router_policy = [] {
    return std::make_unique<core::AlwaysDelayPolicy>(core::AlwaysDelayPolicy::content_specific());
  };
  const auto scenario = sim::make_probe_scenario(params);
  sim::Scheduler& scheduler = scenario->topology.scheduler();
  if (hub != nullptr) scenario->router->arm_telemetry(hub);

  TelemetryScenarioResult result;
  result.attack_start = config.attack_start;

  // Shared depth-2 namespace: honest objects and probe targets both live
  // under /producer/web, so the prefix-bucket detectors see one stream.
  // The honest catalogue has kCatalogue Zipf-popular objects; the adversary
  // cycles over kProbeTargets privately requested ones.
  constexpr std::size_t kCatalogue = 256;
  constexpr std::size_t kProbeTargets = 4;
  const ndn::Name base = scenario->producer->prefix().append("web");
  std::vector<ndn::Name> honest;
  honest.reserve(kCatalogue);
  for (std::size_t i = 0; i < kCatalogue; ++i)
    honest.push_back(base.append("obj" + std::to_string(i)));
  std::vector<ndn::Name> targets;
  targets.reserve(kProbeTargets);
  for (std::size_t i = 0; i < kProbeTargets; ++i)
    targets.push_back(base.append("priv" + std::to_string(i)));

  // Honest user: Zipf-popular fetches at exponential intervals, all
  // scheduled up front (the draw order fixes the arrival pattern per seed).
  constexpr util::SimDuration kHonestMeanGap = util::millis(2);
  util::Rng rng(config.seed ^ 0x7e1e7e1e5ca1ab1eULL);
  const util::ZipfSampler zipf(kCatalogue, config.zipf_exponent);
  sim::Consumer* user = scenario->user;
  util::SimTime t = 0;
  while (true) {
    const double gap_scale = rng.exponential(1.0);
    auto gap = static_cast<util::SimDuration>(
        static_cast<double>(kHonestMeanGap) * gap_scale);
    if (gap < 1) gap = 1;
    t += gap;
    if (t >= config.duration) break;
    const ndn::Name& name = honest[zipf.sample(rng) - 1];
    ++result.honest_requests;
    scheduler.schedule_at(t, [&result, user, name] {
      user->fetch(name, [&result](const ndn::Data&, util::SimDuration) {
        ++result.honest_data;
      });
    });
  }

  // Adversary: fixed-cadence round-robin probe loop over the private
  // targets, starting mid-run. Probes carry the privacy bit, so the
  // countermeasure absorbs them as delayed hits once cached.
  sim::Consumer* adversary = scenario->adversary;
  std::uint64_t round = 0;
  for (util::SimTime pt = config.attack_start; pt < config.duration;
       pt += config.probe_period, ++round) {
    const ndn::Name& name = targets[round % targets.size()];
    const std::int64_t probe_round = static_cast<std::int64_t>(round);
    ++result.probes;
    scheduler.schedule_at(pt, [&result, adversary, name, probe_round] {
      ndn::Interest interest;
      interest.name = name;
      interest.nonce = adversary->make_nonce();
      interest.private_req = true;
      adversary->express_interest(
          std::move(interest),
          [&result, adversary, name, probe_round](const ndn::Data&, util::SimDuration rtt) {
            ++result.probe_data;
            trace_attack_probe(*adversary, name, "attack", rtt, probe_round);
          });
    });
  }

  scheduler.run();
  result.end_time = scheduler.now();
  result.router_outcomes = scenario->router->engine().stats();
  // Close out the time series: one forced row at the end of the run so the
  // exported CSV covers the tail even between cadence boundaries.
  if (hub != nullptr) hub->recorder().sample_at(result.end_time);
  return result;
}

}  // namespace ndnp::attack
