// Sequential (Wald SPRT) probing adversary.
//
// The fixed-t distinguishing game asks "how well can t probes do?"; the
// operational question for an adversary with a per-probe cost is the dual:
// "how many probes until I'm confident?" Wald's sequential probability
// ratio test probes one content repeatedly, accumulating the log-likelihood
// ratio of the observed reply under S_x vs S_0, and stops at the classic
// thresholds log(B) < LLR < log(A) with A = (1-beta)/alpha,
// B = beta/(1-alpha).
//
// The outcome is structural, and sharper than the fixed-t game shows: on a
// SINGLE content the LLR is bounded — every interior observation (any
// finite miss-run, or "still missing") has ratio exactly alpha^x for the
// exponential scheme and exactly 1 for the uniform scheme — so the test
// can never accumulate to a confident verdict. Only the one-sided events
// decide: an immediate first-probe hit (S_x only; mass 1 - alpha^x for the
// exponential scheme but just x/K for the uniform one) or an over-long
// miss-run (S_0 only). The SPRT thus turns the paper's epsilon into the
// probability that the adversary ever gets a *confident* verdict from one
// content, and shows that genuine LLR accumulation requires multiple
// correlated contents — exactly what grouping removes
// (bench_ablation_grouping).
#pragma once

#include <cstdint>

#include "core/k_distribution.hpp"

namespace ndnp::attack {

struct SprtConfig {
  /// Prior honest requests in the "requested" state.
  std::int64_t x = 1;
  /// Target error rates (false positive / false negative).
  double alpha_error = 0.05;
  double beta_error = 0.05;
  std::size_t rounds = 20'000;
  std::uint64_t seed = 21;
};

struct SprtResult {
  /// Fraction of rounds decided correctly (undecided counts as wrong).
  double accuracy = 0.0;
  /// Fraction of rounds that hit the probe cap undecided.
  double undecided_rate = 0.0;
  /// Mean probes spent per round (decided or not).
  double mean_probes = 0.0;
};

/// Run the sequential test against the literal Algorithm 1 with threshold
/// distribution `dist`. The adversary knows dist and x (Kerckhoffs).
[[nodiscard]] SprtResult run_sprt_attack(const core::KDistribution& dist,
                                         const SprtConfig& config);

}  // namespace ndnp::attack
