#include "attack/timing_attack.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "sim/fetch_util.hpp"
#include "util/tracing.hpp"

namespace ndnp::attack {

constexpr std::string_view kAttack = "timing_attack";

util::SimDuration timed_fetch(sim::Consumer& consumer, const ndn::Name& name,
                              std::string_view attack) {
  const std::optional<util::SimDuration> rtt = sim::fetch_blocking(consumer, {.name = name});
  if (!rtt)
    throw std::runtime_error(std::string(attack) + ": fetch of " + name.to_uri() +
                             " never completed");
  return *rtt;
}

References calibrate_references(sim::Consumer& adversary, const ndn::Name& base,
                                std::size_t probes, std::string_view attack) {
  References refs;
  for (std::size_t i = 0; i < probes; ++i) {
    const ndn::Name calib = base.append("calib" + std::to_string(i));
    refs.miss_ms += util::to_millis(timed_fetch(adversary, calib, attack));
    refs.hit_ms += util::to_millis(timed_fetch(adversary, calib, attack));
  }
  refs.miss_ms /= static_cast<double>(probes);
  refs.hit_ms /= static_cast<double>(probes);
  return refs;
}

DecisionRound decide_once(sim::Consumer& victim, sim::Consumer& adversary,
                          const ndn::Name& target, const References& refs, util::Rng& coin,
                          std::string_view attack) {
  DecisionRound round;
  round.requested = coin.bernoulli(0.5);
  if (round.requested) (void)timed_fetch(victim, target, attack);
  round.probe_rtt = timed_fetch(adversary, target, attack);
  const double d1 = util::to_millis(round.probe_rtt);
  round.verdict = std::abs(d1 - refs.hit_ms) < std::abs(d1 - refs.miss_ms);
  return round;
}

void DetectionTally::add(bool verdict, bool truth) noexcept {
  ++trials_;
  if (truth) ++positives_;
  if (verdict && truth) ++detections_;
  if (verdict && !truth) ++false_alarms_;
  if (verdict == truth) ++correct_;
}

DetectionRates DetectionTally::rates() const noexcept {
  const std::size_t negatives = trials_ - positives_;
  return {.detection_rate = positives_ == 0 ? 0.0
                                            : static_cast<double>(detections_) /
                                                  static_cast<double>(positives_),
          .false_alarm_rate = negatives == 0 ? 0.0
                                             : static_cast<double>(false_alarms_) /
                                                   static_cast<double>(negatives),
          .accuracy = trials_ == 0 ? 0.0
                                   : static_cast<double>(correct_) /
                                         static_cast<double>(trials_)};
}

void trace_attack_probe(const sim::Consumer& adversary, const ndn::Name& name,
                        std::string_view truth, util::SimDuration rtt, std::int64_t round,
                        std::string_view inferred) {
  NDNP_TRACE_EVENT(util::TraceEventType::kAttackProbe, adversary.name(), adversary.now(),
                   name.to_uri(),
                   std::string("truth=")
                       .append(truth)
                       .append(inferred.empty() ? "" : " inferred=")
                       .append(inferred),
                   -1, rtt, round);
}

std::pair<double, double> best_threshold(const util::SampleSet& low,
                                         const util::SampleSet& high) {
  if (low.empty() || high.empty())
    throw std::invalid_argument("best_threshold: need samples on both sides");
  // Candidate thresholds: every observed value. O(n log n).
  std::vector<double> all;
  all.reserve(low.size() + high.size());
  all.insert(all.end(), low.samples().begin(), low.samples().end());
  all.insert(all.end(), high.samples().begin(), high.samples().end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());

  std::vector<double> lo_sorted = low.samples();
  std::vector<double> hi_sorted = high.samples();
  std::sort(lo_sorted.begin(), lo_sorted.end());
  std::sort(hi_sorted.begin(), hi_sorted.end());

  const auto total = static_cast<double>(low.size() + high.size());
  double best_thr = all.front();
  double best_acc = 0.0;
  for (const double thr : all) {
    // Classify x < thr as "low"; count correct on both sides.
    const auto lo_correct = static_cast<double>(
        std::lower_bound(lo_sorted.begin(), lo_sorted.end(), thr) - lo_sorted.begin());
    const auto hi_correct = static_cast<double>(
        hi_sorted.end() - std::lower_bound(hi_sorted.begin(), hi_sorted.end(), thr));
    const double acc = (lo_correct + hi_correct) / total;
    if (acc > best_acc) {
      best_acc = acc;
      best_thr = thr;
    }
  }
  return {best_thr, best_acc};
}

TimingAttackResult run_timing_attack(const TimingAttackConfig& config) {
  if (!config.scenario_params)
    throw std::invalid_argument("run_timing_attack: scenario_params is required");

  TimingAttackResult result;
  for (std::size_t trial = 0; trial < config.trials; ++trial) {
    // Fresh scenario per trial: the paper restarts every run with an empty
    // cache at R.
    const auto scenario =
        sim::make_probe_scenario(config.scenario_params(config.seed + trial));
    sim::Consumer& adversary = *scenario->adversary;
    const ndn::Name base =
        scenario->producer->prefix().append(std::string("t").append(std::to_string(trial)));

    // The adversary probes `name`; its RTT is a hit or a miss sample.
    const auto probe = [&](const ndn::Name& name, bool hit) {
      util::SampleSet& samples = hit ? result.hit_rtts_ms : result.miss_rtts_ms;
      const util::SimDuration rtt = timed_fetch(adversary, name, kAttack);
      trace_attack_probe(adversary, name, hit ? "hit" : "miss", rtt,
                         static_cast<std::int64_t>(samples.size()));
      samples.add(util::to_millis(rtt));
    };
    for (std::size_t i = 0; i < config.contents_per_trial; ++i) {
      const ndn::Name cached_name = base.append("hit" + std::to_string(i));
      const ndn::Name fresh_name = base.append("miss" + std::to_string(i));
      if (config.producer_mode) {
        // Figure 3(c): probe the same content twice. The first fetch finds
        // it uncached (miss sample); the second finds it at R (hit sample).
        probe(fresh_name, false);
        probe(fresh_name, true);
      } else {
        // Figures 3(a,b,d): victim U fetches first, caching at R; the
        // adversary then probes that content (hit) and a fresh one (miss).
        (void)timed_fetch(*scenario->user, cached_name, kAttack);
        probe(cached_name, true);
        probe(fresh_name, false);
      }
    }
  }

  result.bayes_accuracy = util::bayes_accuracy(result.hit_rtts_ms, result.miss_rtts_ms, 64);
  const auto [thr, acc] = best_threshold(result.hit_rtts_ms, result.miss_rtts_ms);
  result.threshold_ms = thr;
  result.threshold_accuracy = acc;
  return result;
}

double run_decision_protocol(const TimingAttackConfig& config) {
  if (!config.scenario_params)
    throw std::invalid_argument("run_decision_protocol: scenario_params is required");
  if (config.trials == 0) throw std::invalid_argument("run_decision_protocol: trials is 0");

  util::Rng coin(config.seed ^ 0xabcdef1234567890ULL);
  DetectionTally tally;
  constexpr std::size_t kCalibrationProbes = 3;

  for (std::size_t trial = 0; trial < config.trials; ++trial) {
    const auto scenario =
        sim::make_probe_scenario(config.scenario_params(config.seed + trial));
    sim::Consumer& adversary = *scenario->adversary;
    const ndn::Name base =
        scenario->producer->prefix().append(std::string("t").append(std::to_string(trial)));

    const References refs = calibrate_references(adversary, base, kCalibrationProbes, kAttack);
    // The victim requests the target with probability 1/2, unknown to Adv.
    const ndn::Name target = base.append("target");
    const DecisionRound round =
        decide_once(*scenario->user, adversary, target, refs, coin, kAttack);
    trace_attack_probe(adversary, target, round.requested ? "hit" : "miss", round.probe_rtt,
                       static_cast<std::int64_t>(trial), round.verdict ? "hit" : "miss");
    tally.add(round.verdict, round.requested);
  }
  return tally.rates().accuracy;
}

std::string format_timing_report(const TimingAttackResult& result, std::size_t pdf_bins) {
  char line[192];
  std::string out =
      "RTT distributions (probability density, as in the paper's PDF plots):\n";
  const auto [hit_hist, miss_hist] =
      util::SampleSet::paired_histograms(result.hit_rtts_ms, result.miss_rtts_ms, pdf_bins);
  out += util::format_pdf_table(hit_hist, miss_hist, "hit", "miss");
  out += '\n';
  std::snprintf(line, sizeof line, "hit  RTT: mean=%.3f ms  p50=%.3f  p95=%.3f  (n=%zu)\n",
                result.hit_rtts_ms.mean(), result.hit_rtts_ms.quantile(0.5),
                result.hit_rtts_ms.quantile(0.95), result.hit_rtts_ms.size());
  out += line;
  std::snprintf(line, sizeof line, "miss RTT: mean=%.3f ms  p50=%.3f  p95=%.3f  (n=%zu)\n",
                result.miss_rtts_ms.mean(), result.miss_rtts_ms.quantile(0.5),
                result.miss_rtts_ms.quantile(0.95), result.miss_rtts_ms.size());
  out += line;
  std::snprintf(line, sizeof line, "\nDistinguishing probability (Bayes-optimal): %.4f\n",
                result.bayes_accuracy);
  out += line;
  std::snprintf(line, sizeof line,
                "Single-threshold adversary: accuracy %.4f at threshold %.3f ms\n",
                result.threshold_accuracy, result.threshold_ms);
  out += line;
  return out;
}

}  // namespace ndnp::attack
