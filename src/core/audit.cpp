#include "core/audit.hpp"

#include <stdexcept>

#include "core/engine.hpp"
#include "util/rng.hpp"

namespace ndnp::core {

namespace {

/// Epsilon slack used for the near-zero-epsilon delta estimate: exact
/// epsilon = 0 is degenerate against empirical distributions (sampling
/// noise makes every probability ratio differ from 1, sending all mass to
/// Omega_2), so the one-sided leakage is measured at this small epsilon
/// instead. Should comfortably exceed the per-outcome log-ratio noise
/// ~ sqrt(2 / (rounds * p_outcome)).
constexpr double kZeroEpsilonSlack = 0.15;

/// One game round: run x prior requests then `probes` probes against a
/// fresh engine; return the observed miss-run length.
std::size_t observe_miss_run(const std::function<std::unique_ptr<CachePrivacyPolicy>()>& factory,
                             const AuditConfig& config, std::int64_t prior,
                             std::uint64_t seed, std::uint64_t round) {
  CachePrivacyEngine engine(0, cache::EvictionPolicy::kLru, factory(), seed);
  const util::SimDuration fetch_delay = util::millis(25);
  const bool mark_private = config.producer_private;
  const CachePrivacyEngine::FetchFn fetch = [fetch_delay,
                                             mark_private](const ndn::Interest& interest) {
    return std::pair{ndn::make_data(interest.name, "x", "p", "k", mark_private), fetch_delay};
  };
  ndn::Interest interest;
  interest.name = ndn::Name("/audit").append_number(round);
  interest.private_req = true;

  util::SimTime now = 0;
  for (std::int64_t i = 0; i < prior; ++i) {
    (void)engine.handle(interest, now, fetch);
    now += util::millis(1);
  }
  std::size_t miss_run = 0;
  bool in_prefix = true;
  for (std::int64_t i = 0; i < config.probes; ++i) {
    const RequestOutcome outcome = engine.handle(interest, now, fetch);
    now += util::millis(1);
    if (outcome.response_delay > 0 && in_prefix)
      ++miss_run;
    else
      in_prefix = false;
  }
  return miss_run;
}

}  // namespace

AuditReport audit_policy(
    const std::function<std::unique_ptr<CachePrivacyPolicy>()>& policy_factory,
    const AuditConfig& config) {
  if (!policy_factory) throw std::invalid_argument("audit_policy: null factory");
  if (config.x < 1 || config.probes < 1 || config.rounds == 0)
    throw std::invalid_argument("audit_policy: bad configuration");

  util::Rng rng(config.seed);
  AuditReport report;
  report.never_requested.assign(static_cast<std::size_t>(config.probes) + 1, 0.0);
  report.requested_x.assign(static_cast<std::size_t>(config.probes) + 1, 0.0);

  for (std::size_t round = 0; round < config.rounds; ++round) {
    report.never_requested[observe_miss_run(policy_factory, config, 0, rng.next_u64(),
                                            round)] += 1.0;
    report.requested_x[observe_miss_run(policy_factory, config, config.x, rng.next_u64(),
                                        round)] += 1.0;
  }
  for (double& p : report.never_requested) p /= static_cast<double>(config.rounds);
  for (double& p : report.requested_x) p /= static_cast<double>(config.rounds);

  report.bayes_accuracy =
      0.5 + 0.5 * total_variation(report.never_requested, report.requested_x);
  report.epsilon_at_delta =
      min_epsilon_for_delta(report.never_requested, report.requested_x, config.delta);
  report.delta_near_zero_epsilon = delta_for_epsilon(
      report.never_requested, report.requested_x, kZeroEpsilonSlack);
  return report;
}

}  // namespace ndnp::core
