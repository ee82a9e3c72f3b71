#include "attack/sequential.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace ndnp::attack {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Probe budget cap: stop undecided after this many probes (the oracle for
/// one content is consumed monotonically — after the miss-run ends no
/// further information arrives, so the cap rarely binds).
constexpr std::int64_t kMaxProbes = 4'096;

/// Pr[miss-run >= i] under x prior requests: the run is still alive after
/// i misses iff k >= x + i - 1.
double tail_prob(const core::KDistribution& dist, std::int64_t x, std::int64_t i) {
  return dist.tail(x + i - 1);
}

/// Pr[miss-run == m] (untruncated) under x prior requests.
double run_prob(const core::KDistribution& dist, std::int64_t x, std::int64_t m) {
  if (m == 0) {
    // Immediate hit: threshold already exhausted by the priors.
    double acc = 0.0;
    for (std::int64_t k = 0; k < x; ++k) acc += dist.pmf(k);
    return acc;
  }
  return dist.pmf(x + m - 1);
}

[[nodiscard]] double log_ratio(double p1, double p0) {
  if (p1 <= 0.0 && p0 <= 0.0) return 0.0;  // observation impossible under both: no info
  if (p0 <= 0.0) return kInf;
  if (p1 <= 0.0) return -kInf;
  return std::log(p1 / p0);
}

}  // namespace

SprtResult run_sprt_attack(const core::KDistribution& dist, const SprtConfig& config) {
  if (config.x < 1) throw std::invalid_argument("run_sprt_attack: x must be >= 1");
  if (!(config.alpha_error > 0.0) || config.alpha_error >= 0.5 ||
      !(config.beta_error > 0.0) || config.beta_error >= 0.5)
    throw std::invalid_argument("run_sprt_attack: error rates must be in (0, 0.5)");
  if (config.rounds == 0) throw std::invalid_argument("run_sprt_attack: rounds must be > 0");

  const double log_a = std::log((1.0 - config.beta_error) / config.alpha_error);
  const double log_b = std::log(config.beta_error / (1.0 - config.alpha_error));

  util::Rng rng(config.seed);
  std::size_t correct = 0;
  std::size_t undecided = 0;
  std::uint64_t total_probes = 0;

  for (std::size_t round = 0; round < config.rounds; ++round) {
    const bool requested = rng.bernoulli(0.5);
    const std::int64_t prior = requested ? config.x : 0;

    // Literal Algorithm 1 state for one content.
    const std::int64_t k = dist.sample(rng);
    std::int64_t c = -1;
    const auto probe_is_miss = [&]() -> bool {
      if (c < 0) {
        c = 0;
        return true;
      }
      ++c;
      return c <= k;
    };
    for (std::int64_t i = 0; i < prior; ++i) (void)probe_is_miss();

    double llr = 0.0;
    int verdict = -1;  // -1 undecided, 0 not requested, 1 requested
    std::int64_t probes = 0;
    for (; probes < kMaxProbes; ) {
      const bool miss = probe_is_miss();
      ++probes;
      if (miss) {
        // Censored observation: the run is still alive after `probes`
        // misses.
        llr = log_ratio(tail_prob(dist, config.x, probes), tail_prob(dist, 0, probes));
      } else {
        // The run ended at length probes-1: full information, and probing
        // further is pointless (all subsequent replies are hits under
        // both hypotheses).
        llr = log_ratio(run_prob(dist, config.x, probes - 1), run_prob(dist, 0, probes - 1));
        if (llr >= log_a)
          verdict = 1;
        else if (llr <= log_b)
          verdict = 0;
        break;
      }
      if (llr >= log_a) {
        verdict = 1;
        break;
      }
      if (llr <= log_b) {
        verdict = 0;
        break;
      }
    }
    total_probes += static_cast<std::uint64_t>(probes);
    if (verdict == -1)
      ++undecided;
    else if ((verdict == 1) == requested)
      ++correct;
  }

  SprtResult result;
  result.accuracy = static_cast<double>(correct) / static_cast<double>(config.rounds);
  result.undecided_rate = static_cast<double>(undecided) / static_cast<double>(config.rounds);
  result.mean_probes =
      static_cast<double>(total_probes) / static_cast<double>(config.rounds);
  return result;
}

}  // namespace ndnp::attack
