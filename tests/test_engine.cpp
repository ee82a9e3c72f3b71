#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/policies.hpp"
#include "util/invariant.hpp"

namespace ndnp::core {
namespace {

constexpr util::SimDuration kFetchDelay = util::millis(30);

CachePrivacyEngine::FetchFn make_fetch(bool producer_private = false) {
  return [producer_private](const ndn::Interest& interest) {
    return std::pair{
        ndn::make_data(interest.name, "payload", "producer", "key", producer_private),
        kFetchDelay};
  };
}

ndn::Interest interest_for(const std::string& uri, bool private_req = false) {
  ndn::Interest interest;
  interest.name = ndn::Name(uri);
  interest.private_req = private_req;
  return interest;
}

TEST(Engine, FirstRequestIsTrueMiss) {
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru,
                            std::make_unique<NoPrivacyPolicy>());
  const RequestOutcome outcome = engine.handle(interest_for("/a"), 0, make_fetch());
  EXPECT_EQ(outcome.kind, LookupOutcome::kTrueMiss);
  EXPECT_EQ(outcome.response_delay, kFetchDelay);
  EXPECT_FALSE(outcome.served_from_cache());
  EXPECT_EQ(engine.stats().true_misses, 1u);
  EXPECT_TRUE(engine.store().contains(ndn::Name("/a")));
}

TEST(Engine, SecondRequestIsExposedHitUnderNoPrivacy) {
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru,
                            std::make_unique<NoPrivacyPolicy>());
  (void)engine.handle(interest_for("/a"), 0, make_fetch());
  const RequestOutcome outcome = engine.handle(interest_for("/a"), 1, make_fetch());
  EXPECT_EQ(outcome.kind, LookupOutcome::kExposedHit);
  EXPECT_EQ(outcome.response_delay, 0);
  EXPECT_TRUE(outcome.served_from_cache());
  EXPECT_EQ(engine.stats().exposed_hits, 1u);
  EXPECT_EQ(engine.stats().requests, 2u);  // one exposed hit in two requests
}

TEST(Engine, FetchDelayRecordedInMeta) {
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru,
                            std::make_unique<NoPrivacyPolicy>());
  (void)engine.handle(interest_for("/a"), 0, make_fetch());
  const cache::Entry* entry = engine.store().prepare(ndn::Name("/a")).existing();
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->meta.fetch_delay, kFetchDelay);
  EXPECT_EQ(entry->meta.inserted_at, 0);
}

TEST(Engine, AlwaysDelayHidesPrivateHits) {
  CachePrivacyEngine engine(
      10, cache::EvictionPolicy::kLru,
      std::make_unique<AlwaysDelayPolicy>(AlwaysDelayPolicy::content_specific()));
  (void)engine.handle(interest_for("/a", true), 0, make_fetch());
  const RequestOutcome outcome = engine.handle(interest_for("/a", true), 1, make_fetch());
  EXPECT_EQ(outcome.kind, LookupOutcome::kDelayedHit);
  EXPECT_EQ(outcome.response_delay, kFetchDelay);  // gamma_C == original fetch delay
  EXPECT_TRUE(outcome.served_from_cache());          // bandwidth still saved
  EXPECT_EQ(engine.stats().delayed_hits, 1u);  // served from cache
  EXPECT_EQ(engine.stats().exposed_hits, 0u);  // but hidden from the hit count
  EXPECT_EQ(engine.stats().requests, 2u);
}

TEST(Engine, AlwaysDelayedHitIndistinguishableFromMissByDelay) {
  // The adversary's view: response delay of a delayed hit equals the
  // original fetch delay it would observe on a miss.
  CachePrivacyEngine engine(
      10, cache::EvictionPolicy::kLru,
      std::make_unique<AlwaysDelayPolicy>(AlwaysDelayPolicy::content_specific()));
  const RequestOutcome miss = engine.handle(interest_for("/a", true), 0, make_fetch());
  const RequestOutcome hit = engine.handle(interest_for("/a", true), 1, make_fetch());
  EXPECT_EQ(miss.response_delay, hit.response_delay);
}

TEST(Engine, ConstantGammaPadsMiss) {
  CachePrivacyEngine engine(
      10, cache::EvictionPolicy::kLru,
      std::make_unique<AlwaysDelayPolicy>(AlwaysDelayPolicy::constant(util::millis(100))));
  const RequestOutcome miss = engine.handle(interest_for("/a", true), 0, make_fetch());
  EXPECT_EQ(miss.response_delay, util::millis(100));  // padded up from 30
  const RequestOutcome hit = engine.handle(interest_for("/a", true), 1, make_fetch());
  EXPECT_EQ(hit.response_delay, util::millis(100));
}

TEST(Engine, SimulatedMissLooksLikeOriginalFetch) {
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru,
                            std::make_unique<NaiveThresholdPolicy>(1));
  (void)engine.handle(interest_for("/a", true), 0, make_fetch());
  const RequestOutcome outcome = engine.handle(interest_for("/a", true), 1, make_fetch());
  EXPECT_EQ(outcome.kind, LookupOutcome::kSimulatedMiss);
  EXPECT_EQ(outcome.response_delay, kFetchDelay);
  EXPECT_FALSE(outcome.served_from_cache());
  EXPECT_EQ(engine.stats().simulated_misses, 1u);
}

TEST(Engine, SimulatedMissRefreshesLru) {
  // "the corresponding cache entry becomes fresh even if the response is
  // delayed" — a simulated miss must still protect the entry from LRU
  // eviction.
  CachePrivacyEngine engine(2, cache::EvictionPolicy::kLru,
                            std::make_unique<NaiveThresholdPolicy>(10));
  (void)engine.handle(interest_for("/a", true), 0, make_fetch());
  (void)engine.handle(interest_for("/b"), 1, make_fetch());
  (void)engine.handle(interest_for("/a", true), 2, make_fetch());  // simulated miss, refresh
  (void)engine.handle(interest_for("/c"), 3, make_fetch());        // evicts /b, not /a
  EXPECT_TRUE(engine.store().contains(ndn::Name("/a")));
  EXPECT_FALSE(engine.store().contains(ndn::Name("/b")));
}

TEST(Engine, ProducerPrivateHonoredWithoutConsumerBit) {
  CachePrivacyEngine engine(
      10, cache::EvictionPolicy::kLru,
      std::make_unique<AlwaysDelayPolicy>(AlwaysDelayPolicy::content_specific()));
  (void)engine.handle(interest_for("/a"), 0, make_fetch(/*producer_private=*/true));
  const RequestOutcome outcome = engine.handle(interest_for("/a"), 1, make_fetch(true));
  EXPECT_EQ(outcome.kind, LookupOutcome::kDelayedHit);
}

TEST(Engine, TriggerRuleDeprivatizesThroughEngine) {
  CachePrivacyEngine engine(
      10, cache::EvictionPolicy::kLru,
      std::make_unique<AlwaysDelayPolicy>(AlwaysDelayPolicy::content_specific()));
  (void)engine.handle(interest_for("/a", true), 0, make_fetch());
  (void)engine.handle(interest_for("/a", false), 1, make_fetch());  // trigger
  const RequestOutcome outcome = engine.handle(interest_for("/a", true), 2, make_fetch());
  EXPECT_EQ(outcome.kind, LookupOutcome::kExposedHit);
}

TEST(Engine, RandomCacheEventuallyExposesHits) {
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru,
                            RandomCachePolicy::uniform(5, /*seed=*/3));
  (void)engine.handle(interest_for("/a", true), 0, make_fetch());
  RequestOutcome outcome{};
  for (int i = 1; i <= 6; ++i) {
    outcome = engine.handle(interest_for("/a", true), i, make_fetch());
    if (outcome.kind == LookupOutcome::kExposedHit) break;
  }
  EXPECT_EQ(outcome.kind, LookupOutcome::kExposedHit);
  // Once open, the oracle stays open.
  EXPECT_EQ(engine.handle(interest_for("/a", true), 10, make_fetch()).kind,
            LookupOutcome::kExposedHit);
}

TEST(Engine, StatsAccumulateAcrossKinds) {
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru,
                            std::make_unique<NaiveThresholdPolicy>(1));
  (void)engine.handle(interest_for("/a", true), 0, make_fetch());  // true miss
  (void)engine.handle(interest_for("/a", true), 1, make_fetch());  // simulated miss
  (void)engine.handle(interest_for("/a", true), 2, make_fetch());  // exposed hit
  (void)engine.handle(interest_for("/b"), 3, make_fetch());        // true miss
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.true_misses, 2u);
  EXPECT_EQ(stats.simulated_misses, 1u);
  EXPECT_EQ(stats.exposed_hits, 1u);
  EXPECT_EQ(stats.delayed_hits, 0u);
  engine.reset_stats();
  EXPECT_EQ(engine.stats().requests, 0u);
}

TEST(Engine, NullPolicyRejected) {
  EXPECT_THROW(CachePrivacyEngine(10, cache::EvictionPolicy::kLru, nullptr),
               std::invalid_argument);
}

TEST(Engine, OutcomeKindNames) {
  // Every outcome has its own EngineStats counter and a distinct name.
  EngineStats stats;
  std::uint64_t n = 0;
  for (const LookupOutcome outcome : kLookupOutcomes) {
    stats.count(outcome) = ++n;
    EXPECT_EQ(std::as_const(stats).count(outcome), n) << to_string(outcome);
  }
  EXPECT_EQ(stats.exposed_hits, 1u);
  EXPECT_EQ(stats.delayed_hits, 2u);
  EXPECT_EQ(stats.simulated_misses, 3u);
  EXPECT_EQ(stats.true_misses, 4u);
  EXPECT_EQ(to_string(LookupOutcome::kTrueMiss), "TrueMiss");
  EXPECT_EQ(to_string(LookupOutcome::kExposedHit), "ExposedHit");
}

TEST(Engine, MustBeFreshSkipsStaleEntry) {
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru,
                            std::make_unique<NoPrivacyPolicy>());
  const auto fetch = [](const ndn::Interest& interest) {
    ndn::Data data = ndn::make_data(interest.name, "x", "p", "k");
    data.freshness_period = util::millis(10);
    return std::pair{data, kFetchDelay};
  };
  ndn::Interest interest = interest_for("/a");
  interest.must_be_fresh = true;
  EXPECT_EQ(engine.handle(interest, 0, fetch).kind, LookupOutcome::kTrueMiss);
  EXPECT_EQ(engine.handle(interest, util::millis(5), fetch).kind, LookupOutcome::kExposedHit);
  // Past its freshness period the cached copy is invisible to MustBeFresh.
  const RequestOutcome stale = engine.handle(interest, util::seconds(1), fetch);
  EXPECT_EQ(stale.kind, LookupOutcome::kTrueMiss);
  EXPECT_EQ(stale.response_delay, kFetchDelay);
  // The refetched Data refreshed the cached entry in place.
  EXPECT_EQ(engine.store().size(), 1u);
  EXPECT_EQ(engine.store().stats().inserts, 1u);
  // Without MustBeFresh the stale copy still answers.
  interest.must_be_fresh = false;
  EXPECT_EQ(engine.handle(interest, util::seconds(2), fetch).kind, LookupOutcome::kExposedHit);
}

TEST(Engine, RefetchedStaleEntryIsFreshAgain) {
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru,
                            std::make_unique<NoPrivacyPolicy>());
  const auto fetch = [](const ndn::Interest& interest) {
    ndn::Data data = ndn::make_data(interest.name, "x", "p", "k");
    data.freshness_period = util::millis(10);
    return std::pair{data, kFetchDelay};
  };
  ndn::Interest interest = interest_for("/a");
  interest.must_be_fresh = true;
  EXPECT_EQ(engine.handle(interest, 0, fetch).kind, LookupOutcome::kTrueMiss);
  EXPECT_EQ(engine.handle(interest, util::seconds(1), fetch).kind, LookupOutcome::kTrueMiss);
  // The refetch restarted the freshness period: the refreshed copy now
  // answers MustBeFresh until it goes stale again.
  EXPECT_EQ(engine.store().prepare(interest.name).existing()->meta.inserted_at, util::seconds(1));
  EXPECT_EQ(engine.handle(interest, util::seconds(1) + util::millis(5), fetch).kind,
            LookupOutcome::kExposedHit);
  EXPECT_EQ(engine.handle(interest, util::seconds(2), fetch).kind, LookupOutcome::kTrueMiss);
  EXPECT_EQ(engine.store().stats().inserts, 1u);
}

TEST(Engine, AdmitRefreshKeepsPolicyState) {
  // A Data answering a simulated miss must not re-seed the policy: the
  // naive threshold keeps counting toward k instead of restarting.
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru,
                            std::make_unique<NaiveThresholdPolicy>(2));
  const ndn::Interest interest = interest_for("/a", true);
  util::Rng coin(1);
  EXPECT_EQ(engine.lookup(interest, 0).outcome, LookupOutcome::kTrueMiss);
  EXPECT_TRUE(engine.admit(ndn::make_data(interest.name, "v1", "p", "k"), interest, kFetchDelay,
                           0, coin));
  const LookupResult hidden = engine.lookup(interest, 1);
  EXPECT_EQ(hidden.outcome, LookupOutcome::kSimulatedMiss);
  ASSERT_NE(hidden.entry, nullptr);
  EXPECT_TRUE(engine.admit(ndn::make_data(interest.name, "v2", "p", "k"), interest, kFetchDelay,
                           2, coin));
  EXPECT_EQ(engine.store().prepare(interest.name).existing()->data.payload, "v2");
  EXPECT_EQ(engine.store().prepare(interest.name).existing()->meta.request_count, 1u);
  EXPECT_EQ(engine.lookup(interest, 3).outcome, LookupOutcome::kSimulatedMiss);
  EXPECT_EQ(engine.lookup(interest, 4).outcome, LookupOutcome::kExposedHit);
  EXPECT_EQ(engine.store().stats().inserts, 1u);
}

TEST(Engine, PolicyCannotHideTrueMisses) {
  // A policy may hide hits but never misses: answering a cached lookup
  // with kTrueMiss is a bug the engine refuses.
  class TrueMissPolicy final : public CachePrivacyPolicy {
   public:
    void on_insert(cache::Entry&, const ndn::Interest&, util::SimTime) override {}
    [[nodiscard]] LookupDecision on_cached_lookup(cache::Entry&, const ndn::Interest&, bool,
                                                  util::SimTime) override {
      return {.action = LookupOutcome::kTrueMiss, .artificial_delay = 0};
    }
    [[nodiscard]] std::string_view name() const noexcept override { return "TrueMiss"; }
    [[nodiscard]] std::unique_ptr<CachePrivacyPolicy> clone() const override {
      return std::make_unique<TrueMissPolicy>();
    }
  };
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru, std::make_unique<TrueMissPolicy>());
  (void)engine.handle(interest_for("/a"), 0, make_fetch());
  EXPECT_THROW((void)engine.lookup(interest_for("/a"), 1), util::InvariantViolation);
}

TEST(Engine, EvictionReachesCapacity) {
  CachePrivacyEngine engine(4, cache::EvictionPolicy::kLru,
                            std::make_unique<NoPrivacyPolicy>());
  for (int i = 0; i < 20; ++i)
    (void)engine.handle(interest_for("/obj/" + std::to_string(i)), i, make_fetch());
  EXPECT_EQ(engine.store().size(), 4u);
}

TEST(EngineStats, RatesOnEmptyStatsAreZero) {
  const EngineStats stats;
  EXPECT_EQ(stats.requests, 0u);
  for (const LookupOutcome outcome :
       {LookupOutcome::kExposedHit, LookupOutcome::kDelayedHit, LookupOutcome::kSimulatedMiss,
        LookupOutcome::kTrueMiss})
    EXPECT_EQ(stats.count(outcome), 0u);
}

}  // namespace
}  // namespace ndnp::core

namespace ndnp::core {
namespace {

TEST(EngineAdmission, ZeroProbabilityNeverCaches) {
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru,
                            std::make_unique<NoPrivacyPolicy>(), /*seed=*/1,
                            /*cache_admission_probability=*/0.0);
  const auto fetch = [](const ndn::Interest& interest) {
    return std::pair{ndn::make_data(interest.name, "x", "p", "k"), util::millis(30)};
  };
  for (int i = 0; i < 5; ++i) {
    const RequestOutcome outcome = engine.handle(
        [] {
          ndn::Interest interest;
          interest.name = ndn::Name("/a");
          return interest;
        }(),
        i, fetch);
    EXPECT_EQ(outcome.kind, LookupOutcome::kTrueMiss);
  }
  EXPECT_EQ(engine.store().size(), 0u);
  EXPECT_EQ(engine.stats().true_misses, 5u);
}

TEST(EngineAdmission, PartialProbabilityCachesEventually) {
  CachePrivacyEngine engine(0, cache::EvictionPolicy::kLru,
                            std::make_unique<NoPrivacyPolicy>(), /*seed=*/2,
                            /*cache_admission_probability=*/0.5);
  const auto fetch = [](const ndn::Interest& interest) {
    return std::pair{ndn::make_data(interest.name, "x", "p", "k"), util::millis(30)};
  };
  for (int i = 0; i < 64; ++i) {
    ndn::Interest interest;
    interest.name = ndn::Name("/obj").append_number(static_cast<std::uint64_t>(i));
    (void)engine.handle(interest, i, fetch);
  }
  EXPECT_GT(engine.store().size(), 16u);
  EXPECT_LT(engine.store().size(), 48u);
}

TEST(EngineAdmission, MissResponseStillPaddedWhenNotAdmitted) {
  // Even content the router chooses not to cache must get the constant-
  // gamma padding: a fast un-padded miss would leak the admission decision.
  CachePrivacyEngine engine(
      10, cache::EvictionPolicy::kLru,
      std::make_unique<AlwaysDelayPolicy>(AlwaysDelayPolicy::constant(util::millis(100))),
      /*seed=*/3, /*cache_admission_probability=*/0.0);
  ndn::Interest interest;
  interest.name = ndn::Name("/a");
  interest.private_req = true;
  const auto fetch = [](const ndn::Interest& i) {
    return std::pair{ndn::make_data(i.name, "x", "p", "k"), util::millis(30)};
  };
  const RequestOutcome outcome = engine.handle(interest, 0, fetch);
  EXPECT_EQ(outcome.response_delay, util::millis(100));
}

/// A coin whose first bernoulli(0.5) flip admits (or refuses).
util::Rng coin_that(bool admits) {
  for (std::uint64_t seed = 1;; ++seed) {
    util::Rng probe(seed);
    if (probe.bernoulli(0.5) == admits) return util::Rng(seed);
  }
}

TEST(EngineAdmission, RefreshFlipsNoCoin) {
  // Re-admitting a cached name refreshes it in place and never consults
  // the admission coin.
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru,
                            std::make_unique<NoPrivacyPolicy>(), /*seed=*/1,
                            /*cache_admission_probability=*/0.5);
  const ndn::Interest interest = interest_for("/a");
  util::Rng coin(7);
  util::Rng witness(7);
  while (!engine.store().contains(interest.name)) {
    (void)engine.admit(ndn::make_data(interest.name, "v1", "p", "k"), interest, kFetchDelay, 0,
                       coin);
    (void)witness.bernoulli(0.5);
  }
  EXPECT_TRUE(engine.admit(ndn::make_data(interest.name, "v2", "p", "k"), interest, kFetchDelay,
                           1, coin));
  EXPECT_EQ(coin.next_u64(), witness.next_u64());
  EXPECT_EQ(engine.store().prepare(interest.name).existing()->data.payload, "v2");
}

TEST(EngineAdmission, RefreshHeavyOutcomeSequenceIsPinned) {
  // MustBeFresh interests over 23 names that go stale after 10 ms: about a
  // third of the true misses find their stale copy and refresh it, the
  // rest flip the engine's coin. The sequence (E exposed, T true miss) and
  // the counters are pinned, so any extra or missing coin flip shows.
  CachePrivacyEngine engine(16, cache::EvictionPolicy::kLru,
                            std::make_unique<NoPrivacyPolicy>(), /*seed=*/5,
                            /*cache_admission_probability=*/0.5);
  const auto fetch = [](const ndn::Interest& interest) {
    ndn::Data data = ndn::make_data(interest.name, "x", "p", "k");
    data.freshness_period = util::millis(10);
    return std::pair{data, kFetchDelay};
  };
  std::string sequence;
  for (int i = 0; i < 160; ++i) {
    ndn::Interest interest = interest_for("/obj/" + std::to_string(i * 7 % 23));
    interest.must_be_fresh = i % 3 != 0;
    const RequestOutcome outcome = engine.handle(interest, util::millis(4) * i, fetch);
    sequence += outcome.kind == LookupOutcome::kExposedHit ? 'E' : 'T';
  }
  EXPECT_EQ(sequence,
            "TTTTTTTTTTTTTTTTTTTTTTTTTTTETTETTTTTETTETTTTTTTTETTTTTETTETTETTE"
            "TTTTTTTTTTTETTETTTTTETTTTTTTTETTETTETTETTETTETTETTTTTTTTTTTTTTET"
            "TETTETTETTETTETTETTTTTTTTTTTTTTE");
  EXPECT_EQ(engine.store().stats().inserts, 43u);
  EXPECT_EQ(engine.store().stats().evictions, 27u);
  EXPECT_EQ(engine.store().stats().overwrites, 0u);
  EXPECT_EQ(engine.stats().true_misses, 133u);
  engine.store().check_integrity();
}

TEST(EngineAdmission, RefreshKeepsPolicyStateAndRestartsFreshness) {
  CachePrivacyEngine engine(10, cache::EvictionPolicy::kLru,
                            RandomCachePolicy::uniform(100, /*seed=*/9), /*seed=*/1,
                            /*cache_admission_probability=*/0.5);
  const ndn::Interest interest = interest_for("/a", /*private_req=*/true);
  ndn::Data data = ndn::make_data(interest.name, "v1", "p", "k");
  data.freshness_period = util::millis(10);
  util::Rng admits = coin_that(true);
  ASSERT_TRUE(engine.admit(data, interest, kFetchDelay, 0, admits));
  for (int i = 1; i <= 3; ++i) (void)engine.lookup(interest, util::millis(i));
  const cache::Entry before = *engine.store().prepare(interest.name).existing();
  ASSERT_GE(before.meta.k_threshold, 0);
  ASSERT_TRUE(before.meta.treated_private);
  EXPECT_FALSE(before.fresh_at(util::millis(20)));

  // The refresh arrives after the copy went stale, on a coin that would
  // refuse a new name.
  util::Rng refuses = coin_that(false);
  data.payload = "v2";
  EXPECT_TRUE(engine.admit(data, interest, util::millis(99), util::millis(15), refuses));
  const cache::Entry& after = *engine.store().prepare(interest.name).existing();
  EXPECT_EQ(after.data.payload, "v2");
  EXPECT_EQ(after.meta.k_threshold, before.meta.k_threshold);
  EXPECT_EQ(after.meta.request_count, before.meta.request_count);
  EXPECT_EQ(after.meta.treated_private, before.meta.treated_private);
  EXPECT_EQ(after.meta.deprivatized, before.meta.deprivatized);
  EXPECT_EQ(after.meta.fetch_delay, before.meta.fetch_delay);
  EXPECT_EQ(after.meta.inserted_at, util::millis(15));
  EXPECT_EQ(after.meta.last_access, util::millis(15));
  EXPECT_TRUE(after.fresh_at(util::millis(20)));
  EXPECT_EQ(engine.store().stats().inserts, 1u);
  EXPECT_EQ(engine.store().stats().overwrites, 0u);
}

TEST(EngineAdmission, CoinRefusalLeavesNothingBehind) {
  CachePrivacyEngine engine(2, cache::EvictionPolicy::kLru,
                            std::make_unique<NoPrivacyPolicy>(), /*seed=*/1,
                            /*cache_admission_probability=*/0.5);
  for (const char* uri : {"/a", "/b"}) {
    util::Rng admits = coin_that(true);
    ASSERT_TRUE(engine.admit(ndn::make_data(ndn::Name(uri), "x", "p", "k"), interest_for(uri),
                             kFetchDelay, 0, admits));
  }
  util::Rng refuses = coin_that(false);
  EXPECT_FALSE(engine.admit(ndn::make_data(ndn::Name("/c"), "x", "p", "k"), interest_for("/c"),
                            kFetchDelay, 1, refuses));
  EXPECT_EQ(engine.store().size(), 2u);
  EXPECT_FALSE(engine.store().contains(ndn::Name("/c")));
  EXPECT_EQ(engine.store().stats().inserts, 2u);
  EXPECT_EQ(engine.store().stats().evictions, 0u);

  // The next admission of another name evicts the LRU entry and lands
  // where lookups find it.
  util::Rng admits = coin_that(true);
  EXPECT_TRUE(engine.admit(ndn::make_data(ndn::Name("/d"), "x", "p", "k"), interest_for("/d"),
                           kFetchDelay, 2, admits));
  EXPECT_FALSE(engine.store().contains(ndn::Name("/a")));
  EXPECT_TRUE(engine.store().contains(ndn::Name("/b")));
  EXPECT_EQ(engine.lookup(interest_for("/d"), 3).outcome, LookupOutcome::kExposedHit);
  EXPECT_EQ(engine.lookup(interest_for("/c"), 3).outcome, LookupOutcome::kTrueMiss);
  engine.store().check_integrity();
}

TEST(EngineAdmission, RejectsOutOfRangeProbability) {
  EXPECT_THROW(CachePrivacyEngine(10, cache::EvictionPolicy::kLru,
                                  std::make_unique<NoPrivacyPolicy>(), 1, -0.1),
               std::invalid_argument);
  EXPECT_THROW(CachePrivacyEngine(10, cache::EvictionPolicy::kLru,
                                  std::make_unique<NoPrivacyPolicy>(), 1, 1.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace ndnp::core
