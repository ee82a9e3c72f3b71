// Property tests tying the running CachePrivacyEngine to the Section VI
// theory: the engine's observable behavior must match the exact output
// distributions and the closed-form utility for every scheme
// parameterization, and the hit/miss structure must obey Algorithm 1's
// invariants under arbitrary request interleavings.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.hpp"
#include "core/indistinguishability.hpp"
#include "core/policies.hpp"
#include "core/theory.hpp"

namespace ndnp::core {
namespace {

constexpr util::SimDuration kFetchDelay = util::millis(25);

CachePrivacyEngine::FetchFn private_fetch() {
  return [](const ndn::Interest& interest) {
    return std::pair{ndn::make_data(interest.name, "x", "p", "k", /*producer_private=*/true),
                     kFetchDelay};
  };
}

struct SchemeParams {
  double alpha;  // 0 = uniform
  std::int64_t domain;

  [[nodiscard]] std::unique_ptr<KDistribution> make() const {
    if (alpha == 0.0) return std::make_unique<UniformK>(domain);
    return std::make_unique<TruncatedGeometricK>(alpha, domain);
  }
  [[nodiscard]] std::string label() const {
    return (alpha == 0.0 ? "uniform" : "expo" + std::to_string(static_cast<int>(alpha * 100))) +
           "_K" + std::to_string(domain);
  }
};

class RandomCacheProperty : public ::testing::TestWithParam<SchemeParams> {};

TEST_P(RandomCacheProperty, EngineOutputDistributionMatchesExact) {
  const auto dist = GetParam().make();
  constexpr std::int64_t kProbes = 24;
  constexpr std::size_t kRounds = 30'000;

  for (const std::int64_t x : {0LL, 1LL, 3LL}) {
    const DiscreteDist exact = exact_output_distribution(*dist, x, kProbes);
    DiscreteDist empirical(static_cast<std::size_t>(kProbes) + 1, 0.0);
    util::Rng rng(1234 + static_cast<std::uint64_t>(x));
    const auto fetch = private_fetch();
    for (std::size_t round = 0; round < kRounds; ++round) {
      CachePrivacyEngine engine(
          0, cache::EvictionPolicy::kLru,
          std::make_unique<RandomCachePolicy>(dist->clone(), rng.next_u64()));
      ndn::Interest interest;
      interest.name = ndn::Name("/c").append_number(round);
      interest.private_req = true;
      util::SimTime now = 0;
      for (std::int64_t i = 0; i < x; ++i) {
        (void)engine.handle(interest, now, fetch);
        now += 1000;
      }
      std::size_t miss_run = 0;
      bool in_prefix = true;
      for (std::int64_t i = 0; i < kProbes; ++i) {
        const RequestOutcome outcome = engine.handle(interest, now, fetch);
        now += 1000;
        if (outcome.response_delay > 0 && in_prefix)
          ++miss_run;
        else
          in_prefix = false;
      }
      empirical[miss_run] += 1.0;
    }
    for (double& p : empirical) p /= static_cast<double>(kRounds);
    EXPECT_LT(total_variation(exact, empirical), 0.015)
        << GetParam().label() << " x=" << x;
  }
}

TEST_P(RandomCacheProperty, EngineUtilityMatchesClosedForm) {
  const auto dist = GetParam().make();
  constexpr std::int64_t kRequests = 40;
  constexpr std::size_t kRounds = 20'000;

  util::Rng rng(777);
  const auto fetch = private_fetch();
  std::uint64_t exposed = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    CachePrivacyEngine engine(
        0, cache::EvictionPolicy::kLru,
        std::make_unique<RandomCachePolicy>(dist->clone(), rng.next_u64()));
    ndn::Interest interest;
    interest.name = ndn::Name("/c").append_number(round);
    interest.private_req = true;
    util::SimTime now = 0;
    (void)engine.handle(interest, now, fetch);  // insertion
    for (std::int64_t i = 0; i < kRequests; ++i) {
      now += 1000;
      if (engine.handle(interest, now, fetch).kind == LookupOutcome::kExposedHit)
        ++exposed;
    }
  }
  const double measured_utility =
      static_cast<double>(exposed) / static_cast<double>(kRounds * kRequests);
  EXPECT_NEAR(measured_utility, utility(kRequests, *dist), 0.01) << GetParam().label();
}

TEST_P(RandomCacheProperty, MissRunIsAlwaysAPrefix) {
  // Algorithm 1 invariant: for a private-only request stream, once a hit
  // is exposed there is never a later simulated miss.
  const auto dist = GetParam().make();
  util::Rng rng(31);
  const auto fetch = private_fetch();
  for (int round = 0; round < 500; ++round) {
    CachePrivacyEngine engine(
        0, cache::EvictionPolicy::kLru,
        std::make_unique<RandomCachePolicy>(dist->clone(), rng.next_u64()));
    ndn::Interest interest;
    interest.name = ndn::Name("/c").append_number(static_cast<std::uint64_t>(round));
    interest.private_req = true;
    bool seen_hit = false;
    util::SimTime now = 0;
    for (int i = 0; i < 50; ++i) {
      const RequestOutcome outcome = engine.handle(interest, now, fetch);
      now += 1000;
      if (outcome.kind == LookupOutcome::kExposedHit) seen_hit = true;
      if (seen_hit) {
        EXPECT_EQ(outcome.kind, LookupOutcome::kExposedHit)
            << GetParam().label() << " round " << round << " i " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, RandomCacheProperty,
                         ::testing::Values(SchemeParams{0.0, 8}, SchemeParams{0.0, 64},
                                           SchemeParams{0.5, 16}, SchemeParams{0.9, 32},
                                           SchemeParams{0.99, 64}),
                         [](const auto& info) { return info.param.label(); });

// ---------------------------------------------------------------------------
// Trigger-rule property under random interleavings: model-check the engine
// against a tiny reference state machine.

class TriggerRuleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TriggerRuleProperty, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  const CachePrivacyEngine::FetchFn fetch = [](const ndn::Interest& interest) {
    // Producer-unmarked content: the trigger rule is in play.
    return std::pair{ndn::make_data(interest.name, "x", "p", "k"), kFetchDelay};
  };

  for (int round = 0; round < 200; ++round) {
    CachePrivacyEngine engine(
        0, cache::EvictionPolicy::kLru,
        std::make_unique<AlwaysDelayPolicy>(AlwaysDelayPolicy::content_specific()));
    ndn::Interest interest;
    interest.name = ndn::Name("/c").append_number(static_cast<std::uint64_t>(round));

    bool cached = false;        // reference model state
    bool deprivatized = false;  // trigger fired
    util::SimTime now = 0;
    for (int i = 0; i < 30; ++i) {
      interest.private_req = rng.bernoulli(0.5);
      const RequestOutcome outcome = engine.handle(interest, now, fetch);
      now += 1000;

      if (!cached) {
        EXPECT_EQ(outcome.kind, LookupOutcome::kTrueMiss);
        cached = true;
        if (!interest.private_req) deprivatized = true;
        continue;
      }
      if (!interest.private_req) deprivatized = true;
      const bool expect_private = interest.private_req && !deprivatized;
      EXPECT_EQ(outcome.kind, expect_private ? LookupOutcome::kDelayedHit
                                             : LookupOutcome::kExposedHit)
          << "round " << round << " step " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriggerRuleProperty, ::testing::Values(1, 2, 3),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ndnp::core
