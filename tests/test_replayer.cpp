#include "trace/replayer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/policies.hpp"
#include "core/theory.hpp"
#include "trace/stream.hpp"

namespace ndnp::trace {
namespace {

Trace small_trace() {
  TraceGenConfig config;
  config.num_users = 20;
  config.num_objects = 2'000;
  config.num_requests = 30'000;
  config.num_domains = 50;
  config.seed = 7;
  return generate_trace(config);
}

ReplayConfig base_config() {
  ReplayConfig config;
  config.cache_capacity = 500;
  config.private_fraction = 0.2;
  config.seed = 11;
  return config;
}

ReplayConfig with_policy(std::function<std::unique_ptr<core::CachePrivacyPolicy>()> factory) {
  ReplayConfig config = base_config();
  config.policy_factory = std::move(factory);
  return config;
}

TEST(IsPrivateContent, DeterministicPerName) {
  const ndn::Name name("/web/dom1/obj5");
  const bool first = is_private_content(name, 0.3, 42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(is_private_content(name, 0.3, 42), first);
}

TEST(IsPrivateContent, FractionApproximatelyHonored) {
  int private_count = 0;
  constexpr int kNames = 20'000;
  for (int i = 0; i < kNames; ++i) {
    if (is_private_content(ndn::Name("/x").append_number(static_cast<std::uint64_t>(i)), 0.3,
                           1))
      ++private_count;
  }
  EXPECT_NEAR(static_cast<double>(private_count) / kNames, 0.3, 0.02);
}

TEST(IsPrivateContent, EdgeFractions) {
  const ndn::Name name("/a");
  EXPECT_FALSE(is_private_content(name, 0.0, 1));
  EXPECT_TRUE(is_private_content(name, 1.0, 1));
}

TEST(IsPrivateContent, SeedChangesPrivateSet) {
  int differ = 0;
  for (int i = 0; i < 1000; ++i) {
    const ndn::Name name = ndn::Name("/x").append_number(static_cast<std::uint64_t>(i));
    if (is_private_content(name, 0.5, 1) != is_private_content(name, 0.5, 2)) ++differ;
  }
  EXPECT_GT(differ, 300);
}

TEST(Replayer, RequiresPolicyFactory) {
  const Trace trace = small_trace();
  EXPECT_THROW((void)replay(trace, base_config()), std::invalid_argument);
}

TEST(Replayer, NoPrivacyCountsEveryCachedMatchAsHit) {
  const Trace trace = small_trace();
  const ReplayResult result =
      replay(trace, with_policy([] { return std::make_unique<core::NoPrivacyPolicy>(); }));
  EXPECT_EQ(result.stats.requests, trace.size());
  EXPECT_EQ(result.stats.delayed_hits, 0u);
  EXPECT_EQ(result.stats.simulated_misses, 0u);
  EXPECT_GT(result.hit_rate_pct(), 10.0);
  EXPECT_DOUBLE_EQ(result.hit_rate_pct(), result.cache_served_pct());
}

TEST(Replayer, PolicyOrderingMatchesFigure5) {
  // Hit-rate ordering at matched (k, eps, delta):
  // NoPrivacy >= Exponential >= Uniform >= AlwaysDelay.
  const Trace trace = small_trace();
  const std::int64_t k = 5;
  const double eps = 0.005;
  const double delta = 0.05;
  const std::int64_t uniform_domain = core::uniform_domain_for_delta(k, delta);
  const auto expo = core::solve_expo_params(k, eps, delta);
  ASSERT_TRUE(expo.has_value());

  const double none =
      replay(trace, with_policy([] { return std::make_unique<core::NoPrivacyPolicy>(); }))
          .hit_rate_pct();
  const double expo_rate =
      replay(trace, with_policy([&] {
               return core::RandomCachePolicy::exponential(expo->alpha, expo->domain, 5);
             }))
          .hit_rate_pct();
  const double uniform_rate =
      replay(trace, with_policy([&] {
               return core::RandomCachePolicy::uniform(uniform_domain, 5);
             }))
          .hit_rate_pct();
  const double delay_rate =
      replay(trace, with_policy([] {
               return std::make_unique<core::AlwaysDelayPolicy>(
                   core::AlwaysDelayPolicy::content_specific());
             }))
          .hit_rate_pct();

  EXPECT_GE(none, expo_rate);
  EXPECT_GE(expo_rate, uniform_rate);
  EXPECT_GE(uniform_rate, delay_rate);
  EXPECT_GT(none, delay_rate + 1.0);  // the spread is material, not noise
}

TEST(Replayer, RateAccessorsReturnTheGaugesBitForBit) {
  // 110 exposed hits in 200 requests: 100 * (110 / 200.0) rounds to
  // 55.000000000000007 but 100 * 110 / 200.0 is exactly 55, so an accessor
  // with its own formula would disagree with the Figure 5 gauge.
  TraceGenConfig gen;
  gen.num_users = 5;
  gen.num_objects = 200;
  gen.num_requests = 200;
  gen.num_domains = 10;
  gen.seed = 7;
  ReplayConfig config = with_policy([] { return std::make_unique<core::NoPrivacyPolicy>(); });
  config.cache_capacity = 100;
  const ReplayResult result = replay(generate_trace(gen), config);
  const auto exposed = static_cast<double>(result.stats.exposed_hits);
  const auto requests = static_cast<double>(result.stats.requests);
  ASSERT_NE(100.0 * (exposed / requests), 100.0 * exposed / requests)
      << "these counts no longer tell the two formulas apart";
  EXPECT_EQ(result.hit_rate_pct(), result.metrics.gauges.at("replay.hit_rate_pct"));
  EXPECT_EQ(result.cache_served_pct(), result.metrics.gauges.at("replay.cache_served_pct"));
}

TEST(Replayer, AlwaysDelayPreservesBandwidthView) {
  const Trace trace = small_trace();
  const ReplayResult none =
      replay(trace, with_policy([] { return std::make_unique<core::NoPrivacyPolicy>(); }));
  const ReplayResult delay = replay(trace, with_policy([] {
                                      return std::make_unique<core::AlwaysDelayPolicy>(
                                          core::AlwaysDelayPolicy::content_specific());
                                    }));
  // Hidden hits cost visibility, not bandwidth: cache_served is unchanged.
  EXPECT_NEAR(delay.cache_served_pct(), none.cache_served_pct(), 0.5);
  EXPECT_LT(delay.hit_rate_pct(), none.hit_rate_pct());
}

TEST(Replayer, LargerCacheNeverHurts) {
  const Trace trace = small_trace();
  double prev = -1.0;
  for (const std::size_t capacity : {125UL, 250UL, 500UL, 1000UL, 0UL /* unlimited */}) {
    ReplayConfig config =
        with_policy([] { return std::make_unique<core::NoPrivacyPolicy>(); });
    config.cache_capacity = capacity;
    const double rate = replay(trace, config).hit_rate_pct();
    EXPECT_GE(rate, prev - 0.2) << "capacity " << capacity;
    prev = rate;
  }
}

TEST(Replayer, MorePrivateContentLowersHitRate) {
  const Trace trace = small_trace();
  double prev = 101.0;
  for (const double fraction : {0.05, 0.1, 0.2, 0.4}) {
    ReplayConfig config = with_policy([] {
      return std::make_unique<core::AlwaysDelayPolicy>(
          core::AlwaysDelayPolicy::content_specific());
    });
    config.private_fraction = fraction;
    const double rate = replay(trace, config).hit_rate_pct();
    EXPECT_LT(rate, prev) << "fraction " << fraction;
    prev = rate;
  }
}

TEST(Replayer, PrivateRequestCountTracksFraction) {
  const Trace trace = small_trace();
  ReplayConfig config =
      with_policy([] { return std::make_unique<core::NoPrivacyPolicy>(); });
  config.private_fraction = 0.4;
  const ReplayResult result = replay(trace, config);
  const double fraction =
      static_cast<double>(result.private_requests) / static_cast<double>(trace.size());
  // Popularity-weighted, so looser tolerance than the per-name test.
  EXPECT_NEAR(fraction, 0.4, 0.15);
}

TEST(Replayer, MeanResponseReflectsDelays) {
  const Trace trace = small_trace();
  const ReplayResult none =
      replay(trace, with_policy([] { return std::make_unique<core::NoPrivacyPolicy>(); }));
  const ReplayResult delay = replay(trace, with_policy([] {
                                      return std::make_unique<core::AlwaysDelayPolicy>(
                                          core::AlwaysDelayPolicy::content_specific());
                                    }));
  EXPECT_GT(delay.mean_response_ms, none.mean_response_ms);
}

TEST(Replayer, DeterministicAcrossRuns) {
  const Trace trace = small_trace();
  const auto run = [&] {
    return replay(trace, with_policy([] {
                    return core::RandomCachePolicy::uniform(100, 5);
                  }))
        .hit_rate_pct();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Replayer, RejectsUnreplayableTimestampsLikeTheReaders) {
  // The smallest timestamp whose nanosecond count reaches 2^63.
  double too_late = 0x1p63 / 1e9;
  while (too_late * 1e9 < 0x1p63) too_late = std::nextafter(too_late, HUGE_VAL);
  const double last_ok = std::nextafter(too_late, 0.0);
  const TraceRecord good{1.0, 0, ndn::Name("/web/dom1/obj1"), 100};
  const ReplayConfig config =
      with_policy([] { return std::make_unique<core::NoPrivacyPolicy>(); });
  for (const double timestamp : {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(), -1.0, too_late,
                                 1e300}) {
    Trace trace;
    trace.records = {good, {timestamp, 0, ndn::Name("/web/dom1/obj2"), 100}};
    EXPECT_THROW((void)replay(trace, config), TraceParseError) << timestamp;

    // The session rejects the record before it touches any state.
    ReplaySession session(config);
    session.feed(good);
    EXPECT_THROW(session.feed(trace.records[1]), TraceParseError) << timestamp;
    EXPECT_EQ(session.fed(), 1u);
    session.feed(good);
    EXPECT_EQ(session.finish().stats.requests, 2u);
  }
  Trace edge;
  edge.records = {{last_ok, 0, ndn::Name("/web/dom1/obj1"), 100}};
  EXPECT_EQ(replay(edge, config).stats.true_misses, 1u);
}

}  // namespace
}  // namespace ndnp::trace
