// Cache-probing timing attacks (Section III).
//
// The adversary measures round-trip times through its first-hop router R
// and classifies each probe as "served from R's cache" (the victim
// requested it recently) or "fetched from further away". This module runs
// the experiment the paper runs: many trials, each with a fresh cache,
// collecting the hit and miss RTT distributions, then reports how well the
// two separate — via the Bayes-optimal classifier (the paper's
// "probability of determining whether C is retrieved from R's cache") and
// via a realistic single-threshold adversary.
//
// It also holds the steps every attack in this directory shares: a fetch
// whose answer the attack needs, the miss/hit calibration, one round of
// the decision protocol, the detection tally and the attack_probe trace
// event.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "sim/topology.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ndnp::attack {

struct TimingAttackConfig {
  /// Independent trials; each starts from an empty cache (fresh scenario).
  std::size_t trials = 50;
  /// Distinct content objects probed per trial.
  std::size_t contents_per_trial = 20;
  /// Scenario factory (one of the sim::*_scenario_params figures, possibly
  /// with a countermeasure policy installed at R).
  std::function<sim::ScenarioParams(std::uint64_t seed)> scenario_params;
  /// In consumer mode the victim U fetches the content before the
  /// adversary probes (consumer privacy, Figures 3(a,b,d)); in producer
  /// mode nobody prefetches and the adversary probes the same content
  /// twice (producer privacy, Figure 3(c)).
  bool producer_mode = false;
  std::uint64_t seed = 42;
};

struct TimingAttackResult {
  util::SampleSet hit_rtts_ms;
  util::SampleSet miss_rtts_ms;

  /// Accuracy of the Bayes-optimal classifier on the empirical
  /// distributions: 1/2 + TV/2.
  double bayes_accuracy = 0.0;

  /// Best single RTT threshold (hit below, miss above) and its accuracy —
  /// what a practical adversary with a calibration phase achieves.
  double threshold_ms = 0.0;
  double threshold_accuracy = 0.0;
};

/// Collect hit/miss RTT distributions and classifier accuracies.
[[nodiscard]] TimingAttackResult run_timing_attack(const TimingAttackConfig& config);

/// End-to-end adversary protocol success rate: per trial the victim's
/// request happens with probability 1/2 (unknown to Adv); Adv calibrates
/// d_hit/d_miss references on throwaway content, probes the target once and
/// decides by nearest reference. Returns the fraction of correct verdicts;
/// throws std::invalid_argument when `trials` is 0.
[[nodiscard]] double run_decision_protocol(const TimingAttackConfig& config);

/// Fit the best single-threshold classifier between two sample sets
/// (exposed for reuse and tests). Returns {threshold, accuracy}: samples
/// below the threshold are classified into `low`.
[[nodiscard]] std::pair<double, double> best_threshold(const util::SampleSet& low,
                                                       const util::SampleSet& high);

/// Fetch `name` through `consumer` (sim::fetch_blocking, no timeout) and
/// return its RTT. A fetch that never completes throws std::runtime_error
/// naming `attack` and `name`: scoring it as some RTT would read as a verdict.
[[nodiscard]] util::SimDuration timed_fetch(sim::Consumer& consumer, const ndn::Name& name,
                                            std::string_view attack);

/// Mean miss and hit reference RTTs in ms.
struct References {
  double miss_ms = 0.0;
  double hit_ms = 0.0;
};

/// Fetch base/calib<i> twice for each of `probes` throwaway names: first
/// fetches sample the miss reference, second fetches the hit reference.
/// Returns each sum divided by `probes`.
[[nodiscard]] References calibrate_references(sim::Consumer& adversary, const ndn::Name& base,
                                              std::size_t probes, std::string_view attack);

struct DecisionRound {
  bool requested = false;  // the victim fetched the target (ground truth)
  bool verdict = false;    // the adversary decided "hit"
  util::SimDuration probe_rtt = 0;
};

/// One round of the decision protocol: the victim fetches `target` with
/// probability 1/2 drawn from `coin`, then the adversary probes it once and
/// decides "hit" iff the RTT lies nearer the hit than the miss reference.
[[nodiscard]] DecisionRound decide_once(sim::Consumer& victim, sim::Consumer& adversary,
                                        const ndn::Name& target, const References& refs,
                                        util::Rng& coin, std::string_view attack);

/// How a per-trial yes/no attack scored against the ground truth.
struct DetectionRates {
  /// Pr[verdict | truth]; 0 when no trial had the truth.
  double detection_rate = 0.0;
  /// Pr[verdict | not truth]; 0 when every trial had it.
  double false_alarm_rate = 0.0;
  /// Fraction of trials whose verdict equals the truth; 0 with no trials.
  double accuracy = 0.0;
};

/// Counts one (verdict, truth) pair per trial.
class DetectionTally {
 public:
  void add(bool verdict, bool truth) noexcept;
  [[nodiscard]] DetectionRates rates() const noexcept;

 private:
  std::size_t trials_ = 0;
  std::size_t positives_ = 0;
  std::size_t detections_ = 0;
  std::size_t false_alarms_ = 0;
  std::size_t correct_ = 0;
};

/// Record an attack_probe trace event for `adversary`'s probe of `name`
/// at the current simulation time: detail "truth=<truth>", followed by
/// " inferred=<inferred>" when `inferred` is not empty; a = `rtt`,
/// b = `round`. Builds no string unless a tracer is bound and enabled.
void trace_attack_probe(const sim::Consumer& adversary, const ndn::Name& name,
                        std::string_view truth, util::SimDuration rtt, std::int64_t round,
                        std::string_view inferred = {});

/// The Figure-3 text report: the paired hit/miss PDF table, the RTT summary
/// statistics, and both classifier accuracies. Extracted from the bench
/// binaries so the golden regression vectors can lock the exact bytes at
/// fixed seeds (tests/test_golden.cpp); bench_common prints this verbatim.
[[nodiscard]] std::string format_timing_report(const TimingAttackResult& result,
                                               std::size_t pdf_bins = 24);

}  // namespace ndnp::attack
