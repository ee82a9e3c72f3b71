#include "attack/fragment_attack.hpp"

#include <stdexcept>

#include "util/stats.hpp"

namespace ndnp::attack {

constexpr std::string_view kAttack = "fragment_attack";

FragmentAttackResult run_fragment_attack(const FragmentAttackConfig& config) {
  if (!config.scenario_params)
    throw std::invalid_argument("run_fragment_attack: scenario_params is required");
  if (config.n_fragments == 0 || config.trials == 0 || config.calibration_probes == 0)
    throw std::invalid_argument("run_fragment_attack: bad configuration");

  util::Rng coin(config.seed ^ 0x5bd1e995ULL);
  DetectionTally tally;
  std::size_t fragment_probes = 0;
  std::size_t fragment_correct = 0;

  for (std::size_t trial = 0; trial < config.trials; ++trial) {
    const auto scenario =
        sim::make_probe_scenario(config.scenario_params(config.seed + trial));
    sim::Consumer& adversary = *scenario->adversary;
    const ndn::Name base =
        scenario->producer->prefix().append(std::string("t").append(std::to_string(trial)));

    // Calibration: the decision threshold is the midpoint of the mean miss
    // and mean hit reference RTTs.
    const References refs =
        calibrate_references(adversary, base, config.calibration_probes, kAttack);
    const double threshold_ms = 0.5 * (refs.miss_ms + refs.hit_ms);

    // Victim side: with probability 1/2, U fetches all fragments of the
    // target content (as a real consumer downloading the file would).
    const ndn::Name content = base.append("video.avi");
    const bool requested = coin.bernoulli(0.5);
    if (requested) {
      for (std::size_t f = 0; f < config.n_fragments; ++f)
        (void)timed_fetch(*scenario->user, content.append_number(f), kAttack);
    }

    // Adversary: one probe per fragment (each probe is one-shot — it
    // caches the fragment at R). All fragments share the ground truth, so
    // the mean RTT is the sufficient statistic; averaging shrinks jitter
    // by sqrt(n).
    double rtt_sum_ms = 0.0;
    for (std::size_t f = 0; f < config.n_fragments; ++f) {
      const double rtt_ms =
          util::to_millis(timed_fetch(adversary, content.append_number(f), kAttack));
      rtt_sum_ms += rtt_ms;
      // Bookkeeping for the paper's single-object success probability p.
      ++fragment_probes;
      if ((rtt_ms <= threshold_ms) == requested) ++fragment_correct;
    }
    tally.add(rtt_sum_ms / static_cast<double>(config.n_fragments) <= threshold_ms, requested);
  }

  FragmentAttackResult result{tally.rates()};
  result.per_object_accuracy =
      static_cast<double>(fragment_correct) / static_cast<double>(fragment_probes);
  result.analytic_success =
      util::amplified_success(result.per_object_accuracy, config.n_fragments);
  return result;
}

}  // namespace ndnp::attack
