// Tests for the extended forwarder features: freshness/MustBeFresh,
// per-interest lifetimes, PIT capacity, FIB registration, NACKs and cache
// admission control.
#include <gtest/gtest.h>

#include <optional>

#include "sim/apps.hpp"
#include "sim/fetch_util.hpp"
#include "sim/forwarder.hpp"

namespace ndnp::sim {
namespace {

LinkConfig fixed_link(double latency_ms) {
  LinkConfig cfg;
  cfg.latency = util::millis_f(latency_ms);
  return cfg;
}

util::SimDuration fetch(Consumer& consumer, ndn::Interest interest) {
  const std::optional<util::SimDuration> rtt = fetch_blocking(consumer, std::move(interest));
  EXPECT_TRUE(rtt.has_value());
  return rtt.value_or(-1);
}

ndn::Interest plain(const std::string& uri) { return {.name = ndn::Name(uri)}; }

struct Line {
  Scheduler sched;
  std::optional<Consumer> consumer;
  std::optional<Forwarder> router;
  std::optional<Producer> producer;

  explicit Line(ForwarderConfig cfg = {}, ProducerConfig pcfg = {}) {
    cfg.cs_capacity = 0;
    cfg.processing_delay = util::micros(10);
    consumer.emplace(sched, "C", 1);
    router.emplace(sched, "R", cfg);
    producer.emplace(sched, "P", ndn::Name("/p"), "key", pcfg, 2);
    connect(*consumer, *router, fixed_link(1.0));
    const auto [rp, pr] = connect(*router, *producer, fixed_link(2.0));
    (void)pr;
    router->add_route(ndn::Name("/p"), rp);
  }
};

TEST(Freshness, StaleEntryInvisibleToMustBeFresh) {
  Line net;
  ndn::Data short_lived = ndn::make_data(ndn::Name("/p/frame"), "v1", "P", "key");
  short_lived.freshness_period = util::millis(10);
  net.producer->publish(short_lived);

  (void)fetch(*net.consumer, plain("/p/frame"));  // cache at R
  net.sched.run_until(net.sched.now() + util::millis(50));   // let it go stale

  const ndn::Interest fresh_only{.name = ndn::Name("/p/frame"), .must_be_fresh = true};
  const util::SimDuration rtt = fetch(*net.consumer, fresh_only);
  EXPECT_GT(rtt, util::millis(5));  // fetched from the producer again
  EXPECT_EQ(net.producer->interests_served(), 2u);
}

TEST(Freshness, RefetchedStaleEntryIsFreshAgain) {
  Line net;
  ndn::Data short_lived = ndn::make_data(ndn::Name("/p/frame"), "v1", "P", "key");
  short_lived.freshness_period = util::millis(10);
  net.producer->publish(short_lived);

  (void)fetch(*net.consumer, plain("/p/frame"));  // cache at R
  net.sched.run_until(net.sched.now() + util::millis(50));   // let it go stale

  const ndn::Interest fresh_only{.name = ndn::Name("/p/frame"), .must_be_fresh = true};
  (void)fetch(*net.consumer, fresh_only);  // refetch refreshes R's copy
  EXPECT_EQ(net.producer->interests_served(), 2u);
  // Within the new freshness period R answers MustBeFresh itself.
  const util::SimDuration rtt = fetch(*net.consumer, fresh_only);
  EXPECT_LE(rtt, util::millis(3));
  EXPECT_EQ(net.producer->interests_served(), 2u);
}

TEST(Freshness, StaleEntryStillServesPlainInterests) {
  Line net;
  ndn::Data short_lived = ndn::make_data(ndn::Name("/p/frame"), "v1", "P", "key");
  short_lived.freshness_period = util::millis(10);
  net.producer->publish(short_lived);

  (void)fetch(*net.consumer, plain("/p/frame"));
  net.sched.run_until(net.sched.now() + util::millis(50));
  const util::SimDuration rtt = fetch(*net.consumer, plain("/p/frame"));
  EXPECT_LE(rtt, util::millis(3));  // served stale from R's cache
  EXPECT_EQ(net.producer->interests_served(), 1u);
}

TEST(Freshness, FreshEntrySatisfiesMustBeFresh) {
  Line net;
  ndn::Data long_lived = ndn::make_data(ndn::Name("/p/doc"), "v1", "P", "key");
  long_lived.freshness_period = util::seconds(60);
  net.producer->publish(long_lived);

  (void)fetch(*net.consumer, plain("/p/doc"));
  const ndn::Interest fresh_only{.name = ndn::Name("/p/doc"), .must_be_fresh = true};
  const util::SimDuration rtt = fetch(*net.consumer, fresh_only);
  EXPECT_LE(rtt, util::millis(3));
}

TEST(Freshness, NoFreshnessPeriodMeansAlwaysFresh) {
  cache::Entry entry;
  entry.data.name = ndn::Name("/a");
  entry.meta.inserted_at = 0;
  EXPECT_TRUE(entry.fresh_at(std::numeric_limits<util::SimTime>::max() / 2));
  entry.data.freshness_period = util::millis(5);
  EXPECT_TRUE(entry.fresh_at(util::millis(5)));
  EXPECT_FALSE(entry.fresh_at(util::millis(6)));
}

TEST(InterestLifetime, OverridesRouterDefault) {
  ForwarderConfig cfg;
  cfg.pit_timeout = util::seconds(10);
  ProducerConfig pcfg;
  pcfg.auto_generate = false;  // never answers
  Line net(cfg, pcfg);

  ndn::Interest interest = plain("/p/never");
  interest.lifetime = util::millis(30);
  net.consumer->express_interest(interest, [](const ndn::Data&, util::SimDuration) {
    FAIL() << "no data expected";
  });
  net.sched.run_until(util::millis(100));
  EXPECT_EQ(net.router->pit_size(), 0u);  // expired at 30 ms, not 10 s
  EXPECT_EQ(net.router->stats().pit_expirations, 1u);
}

TEST(PitCapacity, OverflowingInterestsDropped) {
  ForwarderConfig cfg;
  cfg.pit_capacity = 3;
  ProducerConfig pcfg;
  pcfg.auto_generate = false;
  Line net(cfg, pcfg);

  for (int i = 0; i < 8; ++i) {
    net.consumer->fetch(ndn::Name("/p/x").append_number(static_cast<std::uint64_t>(i)),
                        [](const ndn::Data&, util::SimDuration) {});
  }
  net.sched.run_until(util::millis(10));
  EXPECT_EQ(net.router->pit_size(), 3u);
  EXPECT_EQ(net.router->stats().pit_overflows, 5u);
}

TEST(Admission, ZeroProbabilityNeverCaches) {
  ForwarderConfig cfg;
  cfg.cache_admission_probability = 0.0;
  Line net(cfg);
  (void)fetch(*net.consumer, plain("/p/x"));
  (void)fetch(*net.consumer, plain("/p/x"));
  EXPECT_EQ(net.router->cs().size(), 0u);
  EXPECT_EQ(net.router->stats().admission_skips, 2u);
  EXPECT_EQ(net.producer->interests_served(), 2u);  // every request goes upstream
}

TEST(Admission, PartialProbabilityCachesSome) {
  ForwarderConfig cfg;
  cfg.cache_admission_probability = 0.5;
  cfg.seed = 7;
  Line net(cfg);
  for (int i = 0; i < 40; ++i)
    (void)fetch(*net.consumer,
                plain("/p/obj" + std::to_string(i)));
  EXPECT_GT(net.router->cs().size(), 5u);
  EXPECT_LT(net.router->cs().size(), 35u);
  EXPECT_EQ(net.router->cs().size() + net.router->stats().admission_skips, 40u);
}

TEST(AddRoute, FirstRegisteredHopWins) {
  Scheduler sched;
  ForwarderConfig cfg;
  cfg.cs_capacity = 0;
  Consumer consumer(sched, "C", 1);
  Forwarder router(sched, "R", cfg);
  Producer producer_a(sched, "PA", ndn::Name("/p"), "key-a", ProducerConfig{}, 2);
  Producer producer_b(sched, "PB", ndn::Name("/p"), "key-b", ProducerConfig{}, 3);
  connect(consumer, router, fixed_link(1.0));
  const auto [ra, af] = connect(router, producer_a, fixed_link(2.0));
  const auto [rb, bf] = connect(router, producer_b, fixed_link(2.0));
  (void)af;
  (void)bf;
  router.add_route(ndn::Name("/p"), ra);
  router.add_route(ndn::Name("/p"), rb);  // ignored: /p already has a hop
  for (int i = 0; i < 5; ++i)
    (void)fetch(consumer, plain("/p/x" + std::to_string(i)));
  EXPECT_EQ(producer_a.interests_served(), 5u);
  EXPECT_EQ(producer_b.interests_served(), 0u);
}

TEST(AddRoute, DuplicateRegistrationIgnored) {
  Scheduler sched;
  ForwarderConfig cfg;
  Forwarder router(sched, "R", cfg);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 1);
  const auto [rp, pr] = connect(router, producer, fixed_link(1.0));
  (void)pr;
  router.add_route(ndn::Name("/p"), rp);
  router.add_route(ndn::Name("/p"), rp);  // duplicate
  Consumer consumer(sched, "C", 2);
  connect(consumer, router, fixed_link(1.0));
  (void)fetch(consumer, plain("/p/x"));
  EXPECT_EQ(producer.interests_served(), 1u);
}

TEST(AddRoute, RouteBackToArrivalFaceIsNoRoute) {
  // The only route for /p leads out of the face the interest arrived on:
  // forwarding it would send it straight back, so the router NACKs instead.
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Forwarder router(sched, "R", {});
  const auto [cr, rc] = connect(consumer, router, fixed_link(1.0));
  (void)cr;
  router.add_route(ndn::Name("/p"), rc);

  std::optional<ndn::NackReason> reason;
  consumer.express_interest(
      plain("/p/x"), [](const ndn::Data&, util::SimDuration) { FAIL() << "no data expected"; },
      0, 0, {}, [&reason](const ndn::Nack& nack) { reason = nack.reason; });
  sched.run();
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, ndn::NackReason::kNoRoute);
  EXPECT_EQ(router.stats().no_route_drops, 1u);
  EXPECT_EQ(router.stats().forwarded_interests, 0u);
  EXPECT_EQ(router.stats().nacks_sent, 1u);
  EXPECT_EQ(router.pit_size(), 0u);
}

TEST(Nack, NoRouteNackReachesConsumer) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Forwarder router(sched, "R", {});  // no routes at all
  connect(consumer, router, fixed_link(1.0));

  std::optional<ndn::NackReason> reason;
  ndn::Interest interest = plain("/nowhere/x");
  consumer.express_interest(
      interest, [](const ndn::Data&, util::SimDuration) { FAIL() << "no data expected"; }, 0,
      0, {}, [&reason](const ndn::Nack& nack) { reason = nack.reason; });
  sched.run();
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, ndn::NackReason::kNoRoute);
  EXPECT_EQ(consumer.outstanding(), 0u);
  EXPECT_EQ(consumer.nacks_received(), 1u);
  EXPECT_EQ(router.stats().nacks_sent, 1u);
}

TEST(Nack, PitOverflowNacked) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  ForwarderConfig cfg;
  cfg.pit_capacity = 1;
  Forwarder router(sched, "R", cfg);
  ProducerConfig pcfg;
  pcfg.auto_generate = false;  // keeps the first PIT entry pending
  Producer producer(sched, "P", ndn::Name("/p"), "key", pcfg, 2);
  connect(consumer, router, fixed_link(1.0));
  const auto [rp, pr] = connect(router, producer, fixed_link(1.0));
  (void)pr;
  router.add_route(ndn::Name("/p"), rp);

  int nacks = 0;
  for (int i = 0; i < 3; ++i) {
    consumer.express_interest(
        plain("/p/x" + std::to_string(i)), [](const ndn::Data&, util::SimDuration) {}, 0, 0,
        {}, [&nacks](const ndn::Nack& nack) {
          EXPECT_EQ(nack.reason, ndn::NackReason::kPitOverflow);
          ++nacks;
        });
  }
  sched.run_until(util::millis(50));
  EXPECT_EQ(nacks, 2);  // first interest occupies the single PIT slot
}

TEST(Nack, PropagatesThroughIntermediateRouter) {
  // Consumer -> R1 -> R2; R2 has no route: its NACK must travel back via
  // R1 (flushing R1's PIT entry) to the consumer.
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Forwarder r1(sched, "R1", {});
  Forwarder r2(sched, "R2", {});
  connect(consumer, r1, fixed_link(1.0));
  const auto [r1_up, r2_down] = connect(r1, r2, fixed_link(1.0));
  (void)r2_down;
  r1.add_route(ndn::Name("/p"), r1_up);

  bool nacked = false;
  consumer.express_interest(
      plain("/p/x"), [](const ndn::Data&, util::SimDuration) { FAIL(); }, 0, 0, {},
      [&nacked](const ndn::Nack&) { nacked = true; });
  sched.run_until(util::millis(100));
  EXPECT_TRUE(nacked);
  EXPECT_EQ(r1.pit_size(), 0u);
  EXPECT_EQ(r1.stats().nacks_received, 1u);
  EXPECT_GE(r1.stats().nacks_sent, 1u);
}

TEST(Nack, ReasonNames) {
  EXPECT_EQ(ndn::to_string(ndn::NackReason::kNoRoute), "no-route");
  EXPECT_EQ(ndn::to_string(ndn::NackReason::kPitOverflow), "pit-overflow");
  EXPECT_EQ(ndn::to_string(ndn::NackReason::kDuplicate), "duplicate");
}

TEST(QueueingLink, PacketsSerializeBehindEachOther) {
  // Two back-to-back data fetches over a slow FIFO link: the second
  // payload queues behind the first, so its RTT is strictly larger.
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  ProducerConfig pcfg;
  pcfg.payload_size = 12'500;  // 100 kbit
  pcfg.processing_delay = 0;
  Producer producer(sched, "P", ndn::Name("/p"), "key", pcfg, 2);
  LinkConfig slow = fixed_link(1.0);
  slow.bandwidth_bps = 10e6;  // 100 kbit takes 10 ms
  slow.fifo_queue = true;
  connect(consumer, producer, slow);

  std::vector<util::SimDuration> rtts;
  consumer.fetch(ndn::Name("/p/a"),
                 [&rtts](const ndn::Data&, util::SimDuration r) { rtts.push_back(r); });
  consumer.fetch(ndn::Name("/p/b"),
                 [&rtts](const ndn::Data&, util::SimDuration r) { rtts.push_back(r); });
  sched.run();
  ASSERT_EQ(rtts.size(), 2u);
  // First: ~2 ms propagation + ~10 ms transmission. Second: waits ~10 ms
  // more for the first transmission to finish.
  EXPECT_GT(rtts[1], rtts[0] + util::millis(8));
}

TEST(QueueingLink, NoQueueingWithoutFlag) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  ProducerConfig pcfg;
  pcfg.payload_size = 12'500;
  pcfg.processing_delay = 0;
  Producer producer(sched, "P", ndn::Name("/p"), "key", pcfg, 2);
  LinkConfig slow = fixed_link(1.0);
  slow.bandwidth_bps = 10e6;
  connect(consumer, producer, slow);

  std::vector<util::SimDuration> rtts;
  consumer.fetch(ndn::Name("/p/a"),
                 [&rtts](const ndn::Data&, util::SimDuration r) { rtts.push_back(r); });
  consumer.fetch(ndn::Name("/p/b"),
                 [&rtts](const ndn::Data&, util::SimDuration r) { rtts.push_back(r); });
  sched.run();
  ASSERT_EQ(rtts.size(), 2u);
  EXPECT_LT(rtts[1] - rtts[0], util::millis(1));  // near-identical, no queueing
}

}  // namespace
}  // namespace ndnp::sim
