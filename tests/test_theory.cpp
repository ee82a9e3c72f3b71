#include "core/theory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace ndnp::core {
namespace {

// ---------------------------------------------------------------------------
// Closed forms vs exact summation

TEST(Theory, UniformClosedFormMatchesSummation) {
  const std::int64_t domain = 40;
  const UniformK dist(domain);
  for (std::int64_t c = 1; c <= 120; c += 3) {
    EXPECT_NEAR(uniform_expected_misses(c, domain), expected_misses(c, dist), 1e-9)
        << "c=" << c;
  }
}

TEST(Theory, ExpoClosedFormMatchesSummation) {
  for (const double alpha : {0.3, 0.7, 0.95, 0.999}) {
    for (const std::int64_t domain : {5LL, 20LL, 100LL}) {
      const TruncatedGeometricK dist(alpha, domain);
      for (std::int64_t c = 1; c <= 2 * domain; c += 7) {
        EXPECT_NEAR(expo_expected_misses(c, alpha, domain), expected_misses(c, dist), 1e-8)
            << "alpha=" << alpha << " K=" << domain << " c=" << c;
      }
    }
  }
}

TEST(Theory, UtilityIsOneMinusNormalizedMisses) {
  const UniformK dist(10);
  for (std::int64_t c = 1; c <= 30; ++c) {
    EXPECT_NEAR(utility(c, dist), 1.0 - expected_misses(c, dist) / static_cast<double>(c),
                1e-12);
  }
}

TEST(Theory, UtilityIncreasesWithRequests) {
  // More requests amortize the fixed miss budget: u(c) must be
  // non-decreasing (visible in Figure 4(a)).
  for (std::int64_t domain : {10LL, 50LL}) {
    double prev = uniform_utility(1, domain);
    for (std::int64_t c = 2; c <= 3 * domain; ++c) {
      const double u = uniform_utility(c, domain);
      EXPECT_GE(u, prev - 1e-12) << "c=" << c;
      prev = u;
    }
  }
}

TEST(Theory, ExpoUtilityIncreasesWithRequests) {
  double prev = expo_utility(1, 0.9, 50);
  for (std::int64_t c = 2; c <= 150; ++c) {
    const double u = expo_utility(c, 0.9, 50);
    EXPECT_GE(u, prev - 1e-12);
    prev = u;
  }
}

TEST(Theory, ExpoBeatsUniformAtMatchedPrivacy) {
  // The headline of Figure 4: at equal (k, delta) targets, the exponential
  // scheme yields higher utility (it can concentrate mass on small k_C).
  const std::int64_t k = 5;
  const double delta = 0.05;
  const std::int64_t uniform_domain = uniform_domain_for_delta(k, delta);
  const auto expo = solve_expo_params(k, /*epsilon=*/0.05, delta);
  ASSERT_TRUE(expo.has_value());
  for (std::int64_t c = 5; c <= 100; c += 5) {
    EXPECT_GE(expo_utility(c, expo->alpha, expo->domain) + 1e-9,
              uniform_utility(c, uniform_domain))
        << "c=" << c;
  }
}

TEST(Theory, UtilityBoundedByOne) {
  for (std::int64_t c = 1; c <= 100; c += 9) {
    EXPECT_LE(uniform_utility(c, 30), 1.0);
    EXPECT_GE(uniform_utility(c, 30), 0.0);
    EXPECT_LE(expo_utility(c, 0.8, 30), 1.0);
    EXPECT_GE(expo_utility(c, 0.8, 30), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Privacy budgets (Theorems VI.1 and VI.3)

TEST(Theory, UniformPrivacyBudget) {
  const PrivacyBudget budget = uniform_privacy(5, 200);
  EXPECT_DOUBLE_EQ(budget.epsilon, 0.0);
  EXPECT_DOUBLE_EQ(budget.delta, 2.0 * 5 / 200.0);
}

TEST(Theory, UniformDomainForDeltaInverts) {
  for (const std::int64_t k : {1LL, 5LL, 20LL}) {
    for (const double delta : {0.01, 0.05, 0.2}) {
      const std::int64_t domain = uniform_domain_for_delta(k, delta);
      EXPECT_LE(uniform_privacy(k, domain).delta, delta + 1e-12);
      if (domain > 1) {
        EXPECT_GT(uniform_privacy(k, domain - 1).delta, delta - 1e-12);
      }
    }
  }
}

TEST(Theory, ExpoPrivacyEpsilon) {
  const double alpha = 0.9;
  const std::int64_t k = 5;
  EXPECT_NEAR(expo_privacy(k, alpha, 100).epsilon, -5.0 * std::log(0.9), 1e-12);
}

TEST(Theory, ExpoPrivacyDeltaMatchesTheorem) {
  const double alpha = 0.8;
  const std::int64_t k = 3;
  const std::int64_t domain = 30;
  const double ak = std::pow(alpha, 3.0);
  const double aK = std::pow(alpha, 30.0);
  const double aKk = std::pow(alpha, 27.0);
  EXPECT_NEAR(expo_privacy(k, alpha, domain).delta, (1 - ak + aKk - aK) / (1 - aK), 1e-12);
}

TEST(Theory, ExpoDeltaDecreasesInDomain) {
  // Strictly decreasing mathematically; at large K it saturates at the
  // 1 - alpha^k floor within double precision, hence the tolerance. Note
  // delta > 1 is possible (and vacuous) when K barely exceeds k.
  double prev = std::numeric_limits<double>::infinity();
  for (std::int64_t domain = 6; domain <= 600; domain += 13) {
    const double delta = expo_privacy(5, 0.9, domain).delta;
    EXPECT_LE(delta, prev + 1e-12);
    prev = delta;
  }
  EXPECT_NEAR(prev, 1.0 - std::pow(0.9, 5.0), 1e-9);
}

TEST(Theory, ExpoDeltaFloorIsOneMinusAlphaToK) {
  // K -> infinity limit; finite K always sits above it.
  const double alpha = 0.95;
  const std::int64_t k = 4;
  const double floor = 1.0 - std::pow(alpha, 4.0);
  EXPECT_GE(expo_privacy(k, alpha, 10'000).delta, floor - 1e-12);
  EXPECT_NEAR(expo_privacy(k, alpha, 10'000).delta, floor, 1e-6);
}

TEST(Theory, ExpoAlphaForEpsilonInverts) {
  for (const std::int64_t k : {1LL, 5LL}) {
    for (const double eps : {0.01, 0.05, 0.5}) {
      const double alpha = expo_alpha_for_epsilon(k, eps);
      EXPECT_NEAR(expo_privacy(k, alpha, 1'000).epsilon, eps, 1e-12);
    }
  }
}

TEST(Theory, ExpoDomainForDeltaFindsSmallest) {
  const std::int64_t k = 5;
  const double alpha = 0.99;
  const double target = 0.1;
  const auto domain = expo_domain_for_delta(k, alpha, target);
  ASSERT_TRUE(domain.has_value());
  EXPECT_LE(expo_privacy(k, alpha, *domain).delta, target);
  if (*domain > k + 1) {
    EXPECT_GT(expo_privacy(k, alpha, *domain - 1).delta, target);
  }
}

TEST(Theory, ExpoDomainForDeltaUnattainableBelowFloor) {
  // floor = 1 - 0.9^5 ~ 0.41; a delta of 0.3 cannot be met.
  EXPECT_FALSE(expo_domain_for_delta(5, 0.9, 0.3).has_value());
}

TEST(Theory, SolveExpoParamsMeetsBothTargets) {
  const std::int64_t k = 5;
  const double eps = 0.005;
  const double delta = 0.05;
  const auto params = solve_expo_params(k, eps, delta);
  ASSERT_TRUE(params.has_value());
  const PrivacyBudget budget = expo_privacy(k, params->alpha, params->domain);
  EXPECT_NEAR(budget.epsilon, eps, 1e-12);
  EXPECT_LE(budget.delta, delta);
}

TEST(Theory, MaxEpsilonForDelta) {
  EXPECT_NEAR(max_epsilon_for_delta(0.05), -std::log(0.95), 1e-12);
  EXPECT_THROW((void)max_epsilon_for_delta(0.0), std::invalid_argument);
  EXPECT_THROW((void)max_epsilon_for_delta(1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Verbatim paper formulas: pinned to within one miss of the exact value
// (see the header note on the paper's convention inconsistency).

TEST(Theory, PaperUniformFormulaWithinOneMiss) {
  for (const std::int64_t domain : {10LL, 50LL}) {
    for (std::int64_t c = 1; c <= 2 * domain; ++c) {
      EXPECT_NEAR(paper_uniform_expected_misses(c, domain),
                  uniform_expected_misses(c, domain), 1.0)
          << "c=" << c << " K=" << domain;
    }
  }
}

TEST(Theory, PaperUniformFirstBranchIsExact) {
  for (std::int64_t c = 1; c < 50; ++c)
    EXPECT_NEAR(paper_uniform_expected_misses(c, 50), uniform_expected_misses(c, 50), 1e-12);
}

TEST(Theory, PaperExpoFormulaWithinOneMiss) {
  for (const double alpha : {0.5, 0.9, 0.99}) {
    for (std::int64_t c = 1; c <= 60; ++c) {
      EXPECT_NEAR(paper_expo_expected_misses(c, alpha, 30),
                  expo_expected_misses(c, alpha, 30), 1.0 + 1e-9)
          << "alpha=" << alpha << " c=" << c;
    }
  }
}

TEST(Theory, PaperExpoAtCEqualsOneIsOneMissExactly) {
  // The paper's convention counts the compulsory insertion miss:
  // E[M(1)] = 1 for every alpha, while the post-insertion convention gives
  // Pr[K >= 1].
  EXPECT_NEAR(paper_expo_expected_misses(1, 0.8, 20), 1.0, 1e-9);
  EXPECT_LT(expo_expected_misses(1, 0.8, 20), 1.0);
}

// ---------------------------------------------------------------------------
// Argument validation

TEST(Theory, RejectsBadArguments) {
  EXPECT_THROW((void)uniform_expected_misses(0, 10), std::invalid_argument);
  EXPECT_THROW((void)uniform_expected_misses(5, 0), std::invalid_argument);
  EXPECT_THROW((void)expo_expected_misses(5, 1.5, 10), std::invalid_argument);
  EXPECT_THROW((void)expo_alpha_for_epsilon(0, 0.1), std::invalid_argument);
  EXPECT_THROW((void)expo_alpha_for_epsilon(5, 0.0), std::invalid_argument);
  EXPECT_THROW((void)expo_domain_for_delta(5, 0.9, 0.0), std::invalid_argument);
  EXPECT_THROW((void)uniform_domain_for_delta(0, 0.1), std::invalid_argument);
}

// Parameterized sweep: the Figure 4(b) parameterization is solvable across
// its whole (k, delta) grid and the resulting schemes honor their budgets.
struct Fig4Params {
  std::int64_t k;
  double delta;
};

class Fig4Sweep : public ::testing::TestWithParam<Fig4Params> {};

TEST_P(Fig4Sweep, ParameterizationSolvableAndSound) {
  const auto [k, delta] = GetParam();
  const double eps = max_epsilon_for_delta(delta);
  // With eps = -ln(1-delta) the delta target equals the K -> infinity
  // floor; the solver's slack picks a finite K within relative 1e-6 of it.
  const auto params = solve_expo_params(k, eps, delta);
  ASSERT_TRUE(params.has_value());
  const PrivacyBudget budget = expo_privacy(k, params->alpha, params->domain);
  EXPECT_LE(budget.epsilon, eps + 1e-12);
  EXPECT_LE(budget.delta, delta * (1.0 + 1e-5));

  const std::int64_t uniform_domain = uniform_domain_for_delta(k, delta);
  EXPECT_LE(uniform_privacy(k, uniform_domain).delta, delta + 1e-12);

  // Utility difference is non-negative and bounded by ~0.15 (the paper
  // reports up to ~12 %).
  for (std::int64_t c = 1; c <= 100; c += 9) {
    const double diff =
        expo_utility(c, params->alpha, params->domain) - uniform_utility(c, uniform_domain);
    EXPECT_GE(diff, -1e-9) << "c=" << c;
    EXPECT_LE(diff, 0.2) << "c=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Fig4Sweep,
    ::testing::Values(Fig4Params{1, 0.01}, Fig4Params{1, 0.03}, Fig4Params{1, 0.05},
                      Fig4Params{5, 0.01}, Fig4Params{5, 0.03}, Fig4Params{5, 0.05}),
    [](const auto& info) {
      return std::string("k")
          .append(std::to_string(info.param.k))
          .append("_delta")
          .append(std::to_string(static_cast<int>(info.param.delta * 100)));
    });

}  // namespace
}  // namespace ndnp::core

namespace ndnp::core {
namespace {

TEST(ReproductionPins, Figure4bMaxUtilityDifferenceIsAboutTwelvePercent) {
  // The paper's headline: "the exponential scheme exhibits up to 12%
  // performance gain over the uniform one" at eps = -ln(1-delta). Pin the
  // reproduced maxima (0.1281 at k=1, 0.1254 at k=5 over c <= 100,
  // delta in {0.01, 0.03, 0.05}) to the ~12% band.
  for (const std::int64_t k : {1LL, 5LL}) {
    double max_diff = 0.0;
    for (const double delta : {0.01, 0.03, 0.05}) {
      const double eps = max_epsilon_for_delta(delta);
      const auto expo = solve_expo_params(k, eps, delta);
      ASSERT_TRUE(expo.has_value());
      const std::int64_t uniform_domain = uniform_domain_for_delta(k, delta);
      for (std::int64_t c = 1; c <= 100; ++c) {
        max_diff = std::max(max_diff, expo_utility(c, expo->alpha, expo->domain) -
                                          uniform_utility(c, uniform_domain));
      }
    }
    EXPECT_GT(max_diff, 0.10) << "k=" << k;
    EXPECT_LT(max_diff, 0.15) << "k=" << k;
  }
}

TEST(ReproductionPins, Figure5ParameterizationIsThePapersOne) {
  // Section VII sets k = 5, eps = 0.005: the solved schemes the Figure-5
  // benches use must be Uniform K = 200 and Expo alpha ~ 0.999, K = 201.
  EXPECT_EQ(uniform_domain_for_delta(5, 0.05), 200);
  const auto expo = solve_expo_params(5, 0.005, 0.05);
  ASSERT_TRUE(expo.has_value());
  EXPECT_NEAR(expo->alpha, std::exp(-0.001), 1e-12);
  EXPECT_EQ(expo->domain, 201);
}

}  // namespace
}  // namespace ndnp::core
