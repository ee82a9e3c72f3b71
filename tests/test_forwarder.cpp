// Integration tests of the NDN forwarder: CS/PIT/FIB pipeline, interest
// collapsing, scope handling, and privacy-policy hookup, all driven through
// the event scheduler over small topologies.
#include "sim/forwarder.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "core/policies.hpp"
#include "sim/apps.hpp"
#include "sim/fetch_util.hpp"

namespace ndnp::sim {
namespace {

struct MiniNet {
  Scheduler sched;
  std::optional<Consumer> consumer;
  std::optional<Consumer> consumer2;
  std::optional<Forwarder> router;
  std::optional<Forwarder> router2;
  std::optional<Producer> producer;
};

LinkConfig fixed_link(double latency_ms) {
  LinkConfig cfg;
  cfg.latency = util::millis_f(latency_ms);
  return cfg;
}

ForwarderConfig router_config() {
  ForwarderConfig cfg;
  cfg.cs_capacity = 0;
  cfg.processing_delay = util::micros(10);
  return cfg;
}

/// Consumer -> R -> Producer("/p"), 1 ms + 2 ms fixed links.
void build_line(MiniNet& net, std::unique_ptr<core::CachePrivacyPolicy> policy = nullptr,
                bool honor_scope = false) {
  net.consumer.emplace(net.sched, "C", 1);
  ForwarderConfig cfg = router_config();
  cfg.honor_scope = honor_scope;
  net.router.emplace(net.sched, "R", cfg, std::move(policy));
  ProducerConfig pcfg;
  pcfg.processing_delay = util::micros(10);
  net.producer.emplace(net.sched, "P", ndn::Name("/p"), "key", pcfg, 2);
  connect(*net.consumer, *net.router, fixed_link(1.0));
  const auto [rp, pr] = connect(*net.router, *net.producer, fixed_link(2.0));
  (void)pr;
  net.router->add_route(ndn::Name("/p"), rp);
}

util::SimDuration fetch(Consumer& consumer, const ndn::Name& name, bool private_req = false,
                        std::optional<int> scope = std::nullopt) {
  const std::optional<util::SimDuration> rtt =
      fetch_blocking(consumer, {.name = name, .scope = scope, .private_req = private_req});
  EXPECT_TRUE(rtt.has_value()) << "fetch of " << name.to_uri() << " failed";
  return rtt.value_or(-1);
}

TEST(Forwarder, FetchThroughRouterReachesProducer) {
  MiniNet net;
  build_line(net);
  const util::SimDuration rtt = fetch(*net.consumer, ndn::Name("/p/file/1"));
  // 2 * (1 ms + 2 ms) plus processing; comfortably in [6, 7] ms.
  EXPECT_GE(rtt, util::millis(6));
  EXPECT_LE(rtt, util::millis(7));
  EXPECT_EQ(net.producer->interests_served(), 1u);
  EXPECT_EQ(net.router->engine().stats().true_misses, 1u);
}

TEST(Forwarder, CachesAndServesSecondFetchFaster) {
  MiniNet net;
  build_line(net);
  const util::SimDuration first = fetch(*net.consumer, ndn::Name("/p/file/1"));
  const util::SimDuration second = fetch(*net.consumer, ndn::Name("/p/file/1"));
  EXPECT_LT(second, first);
  EXPECT_LE(second, util::millis(3));  // 2 * 1 ms + processing
  EXPECT_EQ(net.router->engine().stats().exposed_hits, 1u);
  EXPECT_EQ(net.producer->interests_served(), 1u);  // producer not asked again
  EXPECT_TRUE(net.router->cs().contains(ndn::Name("/p/file/1")));
}

TEST(Forwarder, PrefixInterestSatisfiedByCachedLongerName) {
  MiniNet net;
  build_line(net);
  (void)fetch(*net.consumer, ndn::Name("/p/file/1"));
  const util::SimDuration rtt = fetch(*net.consumer, ndn::Name("/p/file"));
  EXPECT_LE(rtt, util::millis(3));  // served from R's cache by prefix match
}

TEST(Forwarder, CollapsesSimultaneousInterests) {
  MiniNet net;
  net.consumer.emplace(net.sched, "C1", 1);
  net.consumer2.emplace(net.sched, "C2", 2);
  net.router.emplace(net.sched, "R", router_config());
  ProducerConfig pcfg;
  net.producer.emplace(net.sched, "P", ndn::Name("/p"), "key", pcfg, 3);
  connect(*net.consumer, *net.router, fixed_link(1.0));
  connect(*net.consumer2, *net.router, fixed_link(1.0));
  const auto [rp, pr] = connect(*net.router, *net.producer, fixed_link(5.0));
  (void)pr;
  net.router->add_route(ndn::Name("/p"), rp);

  int received = 0;
  const auto on_data = [&received](const ndn::Data&, util::SimDuration) { ++received; };
  net.consumer->fetch(ndn::Name("/p/x"), on_data);
  net.consumer2->fetch(ndn::Name("/p/x"), on_data);
  net.sched.run();

  EXPECT_EQ(received, 2);                                  // both consumers served
  EXPECT_EQ(net.producer->interests_served(), 1u);         // one upstream interest
  EXPECT_EQ(net.router->stats().collapsed_interests, 1u);  // second was collapsed
  EXPECT_EQ(net.router->stats().forwarded_interests, 1u);
}

TEST(Forwarder, DropsDuplicateNonce) {
  MiniNet net;
  build_line(net);
  ndn::Interest interest;
  interest.name = ndn::Name("/p/x");
  interest.nonce = 777;
  int received = 0;
  net.consumer->express_interest(
      interest, [&received](const ndn::Data&, util::SimDuration) { ++received; });
  net.consumer->express_interest(
      interest, [&received](const ndn::Data&, util::SimDuration) { ++received; });
  net.sched.run();
  // The duplicate is dropped at the router, but the single returning Data
  // satisfies both pending entries at the consumer.
  EXPECT_EQ(net.router->stats().nonce_drops, 1u);
  EXPECT_EQ(net.producer->interests_served(), 1u);
  EXPECT_EQ(received, 2);
}

TEST(Forwarder, NoRouteDropsInterest) {
  MiniNet net;
  build_line(net);
  EXPECT_FALSE(fetch_blocking(*net.consumer, {.name = ndn::Name("/unrouted/x")}));
  EXPECT_EQ(net.router->stats().no_route_drops, 1u);
}

TEST(Forwarder, FibLongestPrefixMatchWins) {
  MiniNet net;
  net.consumer.emplace(net.sched, "C", 1);
  net.router.emplace(net.sched, "R", router_config());
  ProducerConfig pcfg;
  net.producer.emplace(net.sched, "P-general", ndn::Name("/p"), "key", pcfg, 2);
  Producer specific(net.sched, "P-specific", ndn::Name("/p/special"), "key2", pcfg, 3);
  connect(*net.consumer, *net.router, fixed_link(1.0));
  const auto [to_general, g] = connect(*net.router, *net.producer, fixed_link(1.0));
  const auto [to_specific, s] = connect(*net.router, specific, fixed_link(1.0));
  (void)g;
  (void)s;
  net.router->add_route(ndn::Name("/p"), to_general);
  net.router->add_route(ndn::Name("/p/special"), to_specific);

  (void)fetch(*net.consumer, ndn::Name("/p/special/doc"));
  EXPECT_EQ(specific.interests_served(), 1u);
  EXPECT_EQ(net.producer->interests_served(), 0u);

  (void)fetch(*net.consumer, ndn::Name("/p/other/doc"));
  EXPECT_EQ(net.producer->interests_served(), 1u);
}

TEST(Forwarder, DefaultRouteCatchesEverything) {
  MiniNet net;
  net.consumer.emplace(net.sched, "C", 1);
  net.router.emplace(net.sched, "R", router_config());
  ProducerConfig pcfg;
  net.producer.emplace(net.sched, "P", ndn::Name("/p"), "key", pcfg, 2);
  connect(*net.consumer, *net.router, fixed_link(1.0));
  const auto [rp, pr] = connect(*net.router, *net.producer, fixed_link(1.0));
  (void)pr;
  net.router->add_route(ndn::Name(), rp);  // default route
  (void)fetch(*net.consumer, ndn::Name("/p/x"));
  EXPECT_EQ(net.producer->interests_served(), 1u);
}

TEST(Forwarder, HonoredScopeTwoStopsAtFirstHop) {
  MiniNet net;
  build_line(net, nullptr, /*honor_scope=*/true);
  // Nothing cached: the interest must not be forwarded.
  EXPECT_FALSE(fetch_blocking(*net.consumer, {.name = ndn::Name("/p/x"), .scope = 2}));
  EXPECT_EQ(net.router->stats().scope_drops, 1u);
  EXPECT_EQ(net.producer->interests_served(), 0u);
}

TEST(Forwarder, HonoredScopeTwoServesFromCache) {
  MiniNet net;
  build_line(net, nullptr, /*honor_scope=*/true);
  (void)fetch(*net.consumer, ndn::Name("/p/x"));  // populate R's cache
  const util::SimDuration rtt = fetch(*net.consumer, ndn::Name("/p/x"), false, /*scope=*/2);
  EXPECT_LE(rtt, util::millis(3));  // answered from R's CS
}

TEST(Forwarder, HonoredScopeThreeReachesAdjacentProducer) {
  MiniNet net;
  build_line(net, nullptr, /*honor_scope=*/true);
  // Consumer (1) + router (2) + producer (3) = 3 entities.
  const util::SimDuration rtt = fetch(*net.consumer, ndn::Name("/p/y"), false, /*scope=*/3);
  EXPECT_GT(rtt, util::millis(5));
  EXPECT_EQ(net.producer->interests_served(), 1u);
}

TEST(Forwarder, IgnoredScopeForwardsAnyway) {
  MiniNet net;
  build_line(net, nullptr, /*honor_scope=*/false);
  const util::SimDuration rtt = fetch(*net.consumer, ndn::Name("/p/x"), false, /*scope=*/2);
  EXPECT_GT(rtt, util::millis(5));  // fetched from the producer regardless
  EXPECT_EQ(net.router->stats().scope_drops, 0u);
}

TEST(Forwarder, UnsolicitedDataDropped) {
  MiniNet net;
  build_line(net);
  // Inject Data at the producer without any preceding interest.
  net.producer->send_data(0, ndn::make_data(ndn::Name("/p/spam"), "x", "P", "key"));
  net.sched.run();
  EXPECT_EQ(net.router->stats().unsolicited_data, 1u);
  EXPECT_FALSE(net.router->cs().contains(ndn::Name("/p/spam")));
}

TEST(Forwarder, PitEntryExpiresWithoutResponse) {
  MiniNet net;
  net.consumer.emplace(net.sched, "C", 1);
  ForwarderConfig cfg = router_config();
  cfg.pit_timeout = util::millis(100);
  net.router.emplace(net.sched, "R", cfg);
  ProducerConfig pcfg;
  pcfg.auto_generate = false;  // producer has nothing: no reply ever
  net.producer.emplace(net.sched, "P", ndn::Name("/p"), "key", pcfg, 2);
  connect(*net.consumer, *net.router, fixed_link(1.0));
  const auto [rp, pr] = connect(*net.router, *net.producer, fixed_link(1.0));
  (void)pr;
  net.router->add_route(ndn::Name("/p"), rp);

  net.consumer->fetch(ndn::Name("/p/missing"), [](const ndn::Data&, util::SimDuration) {
    FAIL() << "no data should ever arrive";
  });
  net.sched.run();
  EXPECT_EQ(net.router->pit_size(), 0u);
  EXPECT_EQ(net.router->stats().pit_expirations, 1u);
  EXPECT_EQ(net.producer->interests_unmatched(), 1u);
}

TEST(Forwarder, AlwaysDelayPolicyEqualizesHitAndMissRtt) {
  MiniNet net;
  build_line(net, std::make_unique<core::AlwaysDelayPolicy>(
                      core::AlwaysDelayPolicy::content_specific()));
  // Producer-side privacy marking via config.
  const ndn::Name name("/p/secret");
  const util::SimDuration miss = fetch(*net.consumer, name, /*private=*/true);
  const util::SimDuration hit = fetch(*net.consumer, name, /*private=*/true);
  EXPECT_EQ(net.router->engine().stats().delayed_hits, 1u);
  // gamma_C equals the measured upstream delay: the two RTTs agree to
  // within the (deterministic-link) processing noise.
  EXPECT_NEAR(util::to_millis(hit), util::to_millis(miss), 0.2);
}

TEST(Forwarder, SimulatedMissForwardsUpstream) {
  MiniNet net;
  build_line(net, std::make_unique<core::NaiveThresholdPolicy>(2));
  const ndn::Name name("/p/secret2");
  (void)fetch(*net.consumer, name, /*private=*/true);
  EXPECT_EQ(net.producer->interests_served(), 1u);
  (void)fetch(*net.consumer, name, /*private=*/true);  // simulated miss
  EXPECT_EQ(net.router->engine().stats().simulated_misses, 1u);
  EXPECT_EQ(net.producer->interests_served(), 2u);  // interest went all the way
  // Content stays cached; policy state survived the refresh.
  EXPECT_TRUE(net.router->cs().contains(name));
  (void)fetch(*net.consumer, name, /*private=*/true);  // second simulated miss
  const util::SimDuration exposed = fetch(*net.consumer, name, /*private=*/true);
  EXPECT_EQ(net.router->engine().stats().exposed_hits, 1u);
  EXPECT_LE(exposed, util::millis(3));
}

TEST(Forwarder, ExactMatchOnlyContentInvisibleToPrefixProbes) {
  MiniNet net;
  net.consumer.emplace(net.sched, "C", 1);
  net.router.emplace(net.sched, "R", router_config());
  ProducerConfig pcfg;
  pcfg.auto_generate = false;  // repo-only: serves nothing it didn't publish
  net.producer.emplace(net.sched, "P", ndn::Name("/p"), "key", pcfg, 2);
  connect(*net.consumer, *net.router, fixed_link(1.0));
  const auto [rp, pr] = connect(*net.router, *net.producer, fixed_link(2.0));
  (void)pr;
  net.router->add_route(ndn::Name("/p"), rp);

  ndn::Data secret = ndn::make_data(ndn::Name("/p/session/0/deadbeef"), "frame", "P", "key");
  secret.exact_match_only = true;
  net.producer->publish(std::move(secret));

  // Legitimate party knows the full name.
  const util::SimDuration rtt = fetch(*net.consumer, ndn::Name("/p/session/0/deadbeef"));
  EXPECT_GT(rtt, 0);
  EXPECT_TRUE(net.router->cs().contains(ndn::Name("/p/session/0/deadbeef")));

  // Prober without the rand component gets nothing from the cache, and the
  // producer won't answer the prefix either (exact-match content only).
  EXPECT_FALSE(fetch_blocking(*net.consumer, {.name = ndn::Name("/p/session/0")}));
}

TEST(Forwarder, StatsCountersConsistent) {
  MiniNet net;
  build_line(net);
  (void)fetch(*net.consumer, ndn::Name("/p/a"));
  (void)fetch(*net.consumer, ndn::Name("/p/a"));
  (void)fetch(*net.consumer, ndn::Name("/p/b"));
  const ForwarderStats& stats = net.router->stats();
  EXPECT_EQ(stats.interests_received, 3u);
  EXPECT_EQ(net.router->engine().stats().true_misses, 2u);
  EXPECT_EQ(net.router->engine().stats().exposed_hits, 1u);
  EXPECT_EQ(stats.forwarded_interests, 2u);
  EXPECT_EQ(stats.data_received, 2u);
  EXPECT_EQ(stats.data_forwarded, 2u);
}

}  // namespace
}  // namespace ndnp::sim
