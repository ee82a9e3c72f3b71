#include "core/policies.hpp"

#include <gtest/gtest.h>

#include "core/policy.hpp"

namespace ndnp::core {
namespace {

cache::Entry make_entry(const std::string& uri, bool producer_private = false) {
  cache::Entry entry;
  entry.data.name = ndn::Name(uri);
  entry.data.producer_private = producer_private;
  entry.meta.fetch_delay = util::millis(30);
  return entry;
}

ndn::Interest interest_for(const std::string& uri, bool private_req = false) {
  ndn::Interest interest;
  interest.name = ndn::Name(uri);
  interest.private_req = private_req;
  return interest;
}

// ---------------------------------------------------------------------------
// Marking rules

TEST(Marking, ProducerMarkedAlwaysPrivate) {
  cache::Entry entry = make_entry("/a", /*producer_private=*/true);
  init_privacy_marking(entry, interest_for("/a", false));
  EXPECT_TRUE(entry.meta.treated_private);
  // Even a non-private interest cannot de-privatize producer-marked content.
  EXPECT_TRUE(resolve_effective_privacy(entry, interest_for("/a", false)));
  EXPECT_TRUE(entry.meta.treated_private);
}

TEST(Marking, NameMarkerActsAsProducerMarking) {
  cache::Entry entry = make_entry("/a/private");
  init_privacy_marking(entry, interest_for("/a/private", false));
  EXPECT_TRUE(entry.meta.treated_private);
}

TEST(Marking, ConsumerPrivateRequestMarksEntry) {
  cache::Entry entry = make_entry("/a");
  init_privacy_marking(entry, interest_for("/a", true));
  EXPECT_TRUE(entry.meta.treated_private);
  EXPECT_FALSE(entry.meta.deprivatized);
}

TEST(Marking, NonPrivateFirstRequestDeprivatizesImmediately) {
  cache::Entry entry = make_entry("/a");
  init_privacy_marking(entry, interest_for("/a", false));
  EXPECT_FALSE(entry.meta.treated_private);
  EXPECT_TRUE(entry.meta.deprivatized);
  // A later privacy-flagged interest is still served as non-private.
  EXPECT_FALSE(resolve_effective_privacy(entry, interest_for("/a", true)));
}

TEST(Marking, TriggerRuleSequence) {
  // private, private, non-private (trigger), private -> the last one is
  // non-private; this is exactly the paper's argument for why the trigger
  // must be permanent.
  cache::Entry entry = make_entry("/a");
  init_privacy_marking(entry, interest_for("/a", true));
  EXPECT_TRUE(resolve_effective_privacy(entry, interest_for("/a", true)));
  EXPECT_FALSE(resolve_effective_privacy(entry, interest_for("/a", false)));
  EXPECT_FALSE(resolve_effective_privacy(entry, interest_for("/a", true)));
}

// ---------------------------------------------------------------------------
// NoPrivacyPolicy

TEST(NoPrivacy, AlwaysExposesHits) {
  NoPrivacyPolicy policy;
  cache::Entry entry = make_entry("/a", true);
  const LookupDecision decision =
      policy.on_cached_lookup(entry, interest_for("/a", true), true, 0);
  EXPECT_EQ(decision.action, LookupOutcome::kExposedHit);
  EXPECT_EQ(policy.miss_response_delay(util::millis(5), true), util::millis(5));
  EXPECT_EQ(policy.name(), "NoPrivacy");
}

// ---------------------------------------------------------------------------
// AlwaysDelayPolicy

TEST(AlwaysDelay, ConstantModeDelaysPrivateHits) {
  AlwaysDelayPolicy policy = AlwaysDelayPolicy::constant(util::millis(40));
  cache::Entry entry = make_entry("/a", true);
  const LookupDecision decision = policy.on_cached_lookup(entry, interest_for("/a"), true, 0);
  EXPECT_EQ(decision.action, LookupOutcome::kDelayedHit);
  EXPECT_EQ(decision.artificial_delay, util::millis(40));
}

TEST(AlwaysDelay, NonPrivateContentNotDelayed) {
  AlwaysDelayPolicy policy = AlwaysDelayPolicy::constant(util::millis(40));
  cache::Entry entry = make_entry("/a");
  const LookupDecision decision = policy.on_cached_lookup(entry, interest_for("/a"), false, 0);
  EXPECT_EQ(decision.action, LookupOutcome::kExposedHit);
}

TEST(AlwaysDelay, ConstantModePadsFastMisses) {
  const AlwaysDelayPolicy policy = AlwaysDelayPolicy::constant(util::millis(40));
  // Nearby producer (5 ms): padded to gamma. Far producer (100 ms): cannot
  // pad below the real delay — the paper's noted drawback.
  EXPECT_EQ(policy.miss_response_delay(util::millis(5), true), util::millis(40));
  EXPECT_EQ(policy.miss_response_delay(util::millis(100), true), util::millis(100));
  EXPECT_EQ(policy.miss_response_delay(util::millis(5), false), util::millis(5));
}

TEST(AlwaysDelay, ConstantHitAndFastMissIndistinguishable) {
  // The whole point of gamma: observable delay is gamma in both cases.
  AlwaysDelayPolicy policy = AlwaysDelayPolicy::constant(util::millis(40));
  cache::Entry entry = make_entry("/a", true);
  const LookupDecision hit = policy.on_cached_lookup(entry, interest_for("/a"), true, 0);
  EXPECT_EQ(hit.artificial_delay, policy.miss_response_delay(util::millis(12), true));
}

TEST(AlwaysDelay, ContentSpecificUsesStoredFetchDelay) {
  AlwaysDelayPolicy policy = AlwaysDelayPolicy::content_specific();
  cache::Entry entry = make_entry("/a", true);
  entry.meta.fetch_delay = util::millis(77);
  const LookupDecision decision = policy.on_cached_lookup(entry, interest_for("/a"), true, 0);
  EXPECT_EQ(decision.action, LookupOutcome::kDelayedHit);
  EXPECT_EQ(decision.artificial_delay, util::millis(77));
  // Misses are genuine: no padding in this mode.
  EXPECT_EQ(policy.miss_response_delay(util::millis(12), true), util::millis(12));
}

TEST(AlwaysDelay, DynamicDecaysTowardFloor) {
  AlwaysDelayPolicy policy = AlwaysDelayPolicy::dynamic(
      {.two_hop_floor = util::millis(5), .decay = 0.5});
  cache::Entry entry = make_entry("/a", true);
  entry.meta.fetch_delay = util::millis(80);
  util::SimDuration prev = util::millis(81);
  for (int i = 0; i < 10; ++i) {
    const LookupDecision decision = policy.on_cached_lookup(entry, interest_for("/a"), true, 0);
    EXPECT_EQ(decision.action, LookupOutcome::kDelayedHit);
    EXPECT_LE(decision.artificial_delay, prev);
    EXPECT_GE(decision.artificial_delay, util::millis(5));  // never below the floor
    prev = decision.artificial_delay;
  }
  EXPECT_EQ(prev, util::millis(5));  // converged to the floor
}

TEST(AlwaysDelay, RejectsBadParameters) {
  EXPECT_THROW((void)AlwaysDelayPolicy::constant(-1), std::invalid_argument);
  EXPECT_THROW((void)AlwaysDelayPolicy::dynamic({.two_hop_floor = 0, .decay = 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)AlwaysDelayPolicy::dynamic({.two_hop_floor = 0, .decay = 1.5}),
               std::invalid_argument);
  EXPECT_THROW((void)AlwaysDelayPolicy::dynamic({.two_hop_floor = -5, .decay = 0.5}),
               std::invalid_argument);
}

TEST(AlwaysDelay, CloneKeepsMode) {
  const AlwaysDelayPolicy policy = AlwaysDelayPolicy::constant(util::millis(9));
  const auto copy = policy.clone();
  EXPECT_EQ(copy->miss_response_delay(util::millis(1), true), util::millis(9));
}

// ---------------------------------------------------------------------------
// NaiveThresholdPolicy

TEST(NaiveThreshold, FirstKRequestsMiss) {
  NaiveThresholdPolicy policy(3);
  cache::Entry entry = make_entry("/a", true);
  policy.on_insert(entry, interest_for("/a", true), 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(policy.on_cached_lookup(entry, interest_for("/a"), true, 0).action,
              LookupOutcome::kSimulatedMiss)
        << "request " << i;
  }
  EXPECT_EQ(policy.on_cached_lookup(entry, interest_for("/a"), true, 0).action,
            LookupOutcome::kExposedHit);
}

TEST(NaiveThreshold, NonPrivateBypassesCounter) {
  NaiveThresholdPolicy policy(3);
  cache::Entry entry = make_entry("/a");
  policy.on_insert(entry, interest_for("/a"), 0);
  EXPECT_EQ(policy.on_cached_lookup(entry, interest_for("/a"), false, 0).action,
            LookupOutcome::kExposedHit);
  EXPECT_EQ(entry.meta.request_count, 0u);
}

TEST(NaiveThreshold, KZeroNeverSimulates) {
  NaiveThresholdPolicy policy(0);
  cache::Entry entry = make_entry("/a", true);
  policy.on_insert(entry, interest_for("/a", true), 0);
  EXPECT_EQ(policy.on_cached_lookup(entry, interest_for("/a"), true, 0).action,
            LookupOutcome::kExposedHit);
}

TEST(NaiveThreshold, RejectsNegativeK) {
  EXPECT_THROW(NaiveThresholdPolicy(-1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RandomCachePolicy

TEST(RandomCache, FollowsAlgorithmOneWithDegenerateK) {
  // Degenerate K makes the behavior deterministic: exactly k simulated
  // misses, then exposed hits forever.
  RandomCachePolicy policy(std::make_unique<DegenerateK>(2), /*seed=*/1);
  cache::Entry entry = make_entry("/a", true);
  policy.on_insert(entry, interest_for("/a", true), 0);
  EXPECT_EQ(entry.meta.k_threshold, 2);
  EXPECT_EQ(entry.meta.request_count, 0u);
  EXPECT_EQ(policy.on_cached_lookup(entry, interest_for("/a"), true, 0).action,
            LookupOutcome::kSimulatedMiss);
  EXPECT_EQ(policy.on_cached_lookup(entry, interest_for("/a"), true, 0).action,
            LookupOutcome::kSimulatedMiss);
  EXPECT_EQ(policy.on_cached_lookup(entry, interest_for("/a"), true, 0).action,
            LookupOutcome::kExposedHit);
  EXPECT_EQ(policy.on_cached_lookup(entry, interest_for("/a"), true, 0).action,
            LookupOutcome::kExposedHit);
}

TEST(RandomCache, ThresholdSampledWithinDomain) {
  RandomCachePolicy policy(std::make_unique<UniformK>(6), /*seed=*/2);
  for (int i = 0; i < 200; ++i) {
    cache::Entry entry = make_entry("/obj/" + std::to_string(i), true);
    policy.on_insert(entry, interest_for(entry.data.name.to_uri(), true), 0);
    EXPECT_GE(entry.meta.k_threshold, 0);
    EXPECT_LT(entry.meta.k_threshold, 6);
  }
}

TEST(RandomCache, NonPrivateAlwaysExposed) {
  RandomCachePolicy policy(std::make_unique<DegenerateK>(5), /*seed=*/3);
  cache::Entry entry = make_entry("/a");
  policy.on_insert(entry, interest_for("/a"), 0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policy.on_cached_lookup(entry, interest_for("/a"), false, 0).action,
              LookupOutcome::kExposedHit);
  }
}

TEST(RandomCache, GroupedModeSharesCounterAcrossMembers) {
  // Two contents in the same namespace share one (c, k): probing the
  // second member after the first was exhausted yields an immediate hit
  // pattern consistent with the shared counter — the correlation defense.
  RandomCachePolicy policy(std::make_unique<DegenerateK>(2), /*seed=*/4,
                           Grouping::kByNamespace, /*namespace_prefix_len=*/2);
  cache::Entry frag0 = make_entry("/alice/video/0", true);
  cache::Entry frag1 = make_entry("/alice/video/1", true);
  policy.on_insert(frag0, interest_for("/alice/video/0", true), 0);
  policy.on_insert(frag1, interest_for("/alice/video/1", true), 0);
  EXPECT_EQ(policy.on_cached_lookup(frag0, interest_for("/alice/video/0"), true, 0).action,
            LookupOutcome::kSimulatedMiss);
  EXPECT_EQ(policy.on_cached_lookup(frag1, interest_for("/alice/video/1"), true, 0).action,
            LookupOutcome::kSimulatedMiss);
  // Shared counter now exhausted (c = 2 = k): next access to EITHER member hits.
  EXPECT_EQ(policy.on_cached_lookup(frag0, interest_for("/alice/video/0"), true, 0).action,
            LookupOutcome::kExposedHit);
  EXPECT_EQ(policy.on_cached_lookup(frag1, interest_for("/alice/video/1"), true, 0).action,
            LookupOutcome::kExposedHit);
}

TEST(RandomCache, GroupedByGroupIdUsesProducerAssignment) {
  RandomCachePolicy policy(std::make_unique<DegenerateK>(1), /*seed=*/5, Grouping::kByGroupId);
  cache::Entry a = make_entry("/x/1", true);
  cache::Entry b = make_entry("/y/2", true);  // different namespace, same group
  a.data.group_id = "album-7";
  b.data.group_id = "album-7";
  policy.on_insert(a, interest_for("/x/1", true), 0);
  policy.on_insert(b, interest_for("/y/2", true), 0);
  EXPECT_EQ(policy.on_cached_lookup(a, interest_for("/x/1"), true, 0).action,
            LookupOutcome::kSimulatedMiss);
  EXPECT_EQ(policy.on_cached_lookup(b, interest_for("/y/2"), true, 0).action,
            LookupOutcome::kExposedHit);  // group counter already at k
}

TEST(RandomCache, EmptyGroupIdFallsBackToOwnName) {
  RandomCachePolicy policy(std::make_unique<DegenerateK>(1), /*seed=*/6, Grouping::kByGroupId);
  cache::Entry a = make_entry("/x/1", true);
  cache::Entry b = make_entry("/x/2", true);
  policy.on_insert(a, interest_for("/x/1", true), 0);
  policy.on_insert(b, interest_for("/x/2", true), 0);
  // Independent counters: both first probes simulate misses.
  EXPECT_EQ(policy.on_cached_lookup(a, interest_for("/x/1"), true, 0).action,
            LookupOutcome::kSimulatedMiss);
  EXPECT_EQ(policy.on_cached_lookup(b, interest_for("/x/2"), true, 0).action,
            LookupOutcome::kSimulatedMiss);
}

TEST(RandomCache, GroupStateSurvivesReinsertion) {
  // Eviction + refetch must NOT resample the group threshold; otherwise an
  // adversary could average over resampled k values.
  RandomCachePolicy policy(std::make_unique<DegenerateK>(1), /*seed=*/7,
                           Grouping::kByNamespace, 1);
  cache::Entry entry = make_entry("/vid/0", true);
  policy.on_insert(entry, interest_for("/vid/0", true), 0);
  EXPECT_EQ(policy.on_cached_lookup(entry, interest_for("/vid/0"), true, 0).action,
            LookupOutcome::kSimulatedMiss);
  // Simulate eviction + reinsertion of the same group.
  cache::Entry again = make_entry("/vid/0", true);
  policy.on_insert(again, interest_for("/vid/0", true), 0);
  EXPECT_EQ(policy.on_cached_lookup(again, interest_for("/vid/0"), true, 0).action,
            LookupOutcome::kExposedHit);  // counter continued at c=1, k=1
}

TEST(RandomCache, RejectsBadConstruction) {
  EXPECT_THROW(RandomCachePolicy(nullptr, 1), std::invalid_argument);
  EXPECT_THROW(RandomCachePolicy(std::make_unique<UniformK>(4), 1, Grouping::kByNamespace, 0),
               std::invalid_argument);
}

TEST(RandomCache, FactoriesProduceNamedDistributions) {
  const auto uniform = RandomCachePolicy::uniform(100, 1);
  EXPECT_NE(uniform->distribution().name().find("Uniform"), std::string::npos);
  const auto expo = RandomCachePolicy::exponential(0.9, 100, 1);
  EXPECT_NE(expo->distribution().name().find("TruncGeom"), std::string::npos);
}

TEST(RandomCache, CloneCopiesGroupState) {
  RandomCachePolicy policy(std::make_unique<DegenerateK>(1), /*seed=*/8,
                           Grouping::kByNamespace, 1);
  cache::Entry entry = make_entry("/vid/0", true);
  policy.on_insert(entry, interest_for("/vid/0", true), 0);
  (void)policy.on_cached_lookup(entry, interest_for("/vid/0"), true, 0);  // c -> 1
  const auto copy = policy.clone();
  cache::Entry entry2 = make_entry("/vid/1", true);
  EXPECT_EQ(copy->on_cached_lookup(entry2, interest_for("/vid/1"), true, 0).action,
            LookupOutcome::kExposedHit);  // group counter carried over
}

TEST(LookupOutcomeToString, AllValuesNamed) {
  EXPECT_EQ(to_string(LookupOutcome::kExposedHit), "ExposedHit");
  EXPECT_EQ(to_string(LookupOutcome::kDelayedHit), "DelayedHit");
  EXPECT_EQ(to_string(LookupOutcome::kSimulatedMiss), "SimulatedMiss");
  EXPECT_EQ(to_string(LookupOutcome::kTrueMiss), "TrueMiss");
  EXPECT_EQ(counter_name(LookupOutcome::kExposedHit), "exposed_hits");
  EXPECT_EQ(counter_name(LookupOutcome::kDelayedHit), "delayed_hits");
  EXPECT_EQ(counter_name(LookupOutcome::kSimulatedMiss), "simulated_misses");
  EXPECT_EQ(counter_name(LookupOutcome::kTrueMiss), "true_misses");
  EXPECT_EQ(to_string(DelayMode::kConstant), "constant");
  EXPECT_EQ(to_string(Grouping::kByNamespace), "namespace");
}

}  // namespace
}  // namespace ndnp::core
