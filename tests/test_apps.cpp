#include "sim/apps.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "crypto/hmac.hpp"
#include "sim/fetch_util.hpp"
#include "sim/forwarder.hpp"
#include "sim/topology.hpp"
#include "util/tracing.hpp"

namespace ndnp::sim {
namespace {

LinkConfig fixed_link(double latency_ms) {
  LinkConfig cfg;
  cfg.latency = util::millis_f(latency_ms);
  return cfg;
}

TEST(Consumer, NonceAutoAssignedAndUnique) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  const std::uint64_t a = consumer.make_nonce();
  const std::uint64_t b = consumer.make_nonce();
  EXPECT_NE(a, b);
}

TEST(Consumer, TimeoutFiresWhenUnanswered) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  connect(consumer, producer, fixed_link(1.0));

  bool data_seen = false;
  bool timed_out = false;
  ndn::Interest interest;
  interest.name = ndn::Name("/other/x");  // producer won't serve this
  consumer.express_interest(
      interest, [&](const ndn::Data&, util::SimDuration) { data_seen = true; }, 0,
      util::millis(50), [&](const ndn::Interest&) { timed_out = true; });
  sched.run();
  EXPECT_FALSE(data_seen);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(consumer.outstanding(), 0u);
  EXPECT_EQ(consumer.timeouts(), 1u);
}

TEST(Consumer, TimeoutDoesNotFireAfterData) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  connect(consumer, producer, fixed_link(1.0));

  bool data_seen = false;
  bool timed_out = false;
  ndn::Interest interest;
  interest.name = ndn::Name("/p/x");
  consumer.express_interest(
      interest, [&](const ndn::Data&, util::SimDuration) { data_seen = true; }, 0,
      util::millis(500), [&](const ndn::Interest&) { timed_out = true; });
  sched.run();
  EXPECT_TRUE(data_seen);
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(consumer.timeouts(), 0u);
}

TEST(Consumer, MeasuresRttAgainstDirectProducer) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  ProducerConfig pcfg;
  pcfg.processing_delay = 0;
  Producer producer(sched, "P", ndn::Name("/p"), "key", pcfg, 2);
  connect(consumer, producer, fixed_link(3.0));

  std::optional<util::SimDuration> rtt;
  consumer.fetch(ndn::Name("/p/x"), [&](const ndn::Data&, util::SimDuration r) { rtt = r; });
  sched.run();
  ASSERT_TRUE(rtt.has_value());
  EXPECT_EQ(*rtt, util::millis(6));
}

TEST(Consumer, IgnoresIncomingInterests) {
  Scheduler sched;
  Consumer a(sched, "A", 1);
  Consumer b(sched, "B", 2);
  connect(a, b, fixed_link(1.0));
  ndn::Interest interest;
  interest.name = ndn::Name("/x");
  interest.nonce = 1;
  a.send_interest(0, interest);
  sched.run();  // must not crash, nothing happens
  EXPECT_EQ(b.data_received(), 0u);
}

TEST(Producer, ServesPublishedContentVerbatim) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  ProducerConfig pcfg;
  pcfg.auto_generate = false;
  Producer producer(sched, "P", ndn::Name("/p"), "key", pcfg, 2);
  connect(consumer, producer, fixed_link(1.0));
  producer.publish(ndn::make_data(ndn::Name("/p/published"), "exact-bytes", "P", "key"));

  std::optional<std::string> payload;
  consumer.fetch(ndn::Name("/p/published"),
                 [&](const ndn::Data& data, util::SimDuration) { payload = data.payload; });
  sched.run();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "exact-bytes");
}

TEST(Producer, RepoPrefixMatchServesChild) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  ProducerConfig pcfg;
  pcfg.auto_generate = false;
  Producer producer(sched, "P", ndn::Name("/p"), "key", pcfg, 2);
  connect(consumer, producer, fixed_link(1.0));
  producer.publish(ndn::make_data(ndn::Name("/p/dir/file"), "bytes", "P", "key"));

  bool got = false;
  consumer.fetch(ndn::Name("/p/dir"),
                 [&](const ndn::Data& data, util::SimDuration) {
                   got = true;
                   EXPECT_EQ(data.name.to_uri(), "/p/dir/file");
                 });
  sched.run();
  EXPECT_TRUE(got);
}

TEST(Producer, AutoGenerateHonorsPayloadSizeAndPrivacy) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  ProducerConfig pcfg;
  pcfg.payload_size = 123;
  pcfg.mark_private = true;
  Producer producer(sched, "P", ndn::Name("/p"), "key", pcfg, 2);
  connect(consumer, producer, fixed_link(1.0));

  std::optional<ndn::Data> seen;
  consumer.fetch(ndn::Name("/p/generated"),
                 [&](const ndn::Data& data, util::SimDuration) { seen = data; });
  sched.run();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->payload.size(), 123u);
  EXPECT_TRUE(seen->producer_private);
  EXPECT_TRUE(crypto::verify_content("key", seen->name.to_uri(), seen->payload,
                                     seen->signature));
}

// Consumer U -> edge R -> core X1 -> auto-generating producer P.
std::unique_ptr<ProbeScenario> chain_with_payload(std::size_t payload_size) {
  ScenarioParams params = lan_scenario_params(/*seed=*/17);
  params.producer_config.payload_size = payload_size;
  return make_probe_scenario(params);
}

TEST(Producer, ChainFetchesScheduleNoHeapEvents) {
  // Every scheduled closure on the path — the consumer's timeout, link
  // deliveries, forwarder processing, PIT timers and the producer's delayed
  // response — fits the scheduler's inline event buffer.
  const auto chain = chain_with_payload(8'192);
  for (int i = 0; i < 20; ++i) {
    ndn::Interest interest;
    interest.name = chain->producer->prefix().append("obj" + std::to_string(i));
    chain->user->express_interest(
        std::move(interest), [](const ndn::Data&, util::SimDuration) {}, /*face=*/0,
        /*timeout=*/util::seconds(1));
  }
  chain->topology.scheduler().run();
  EXPECT_EQ(chain->user->data_received(), 20u);
  EXPECT_EQ(chain->topology.scheduler().heap_fallback_events(), 0u);
}

/// Expresses 100 interests through a lan_scenario_params chain and runs it
/// to quiescence; returns the heap-fallback event count.
std::uint64_t heap_events_over_100_fetches(ProbeScenario& chain) {
  for (int i = 0; i < 100; ++i) {
    ndn::Interest interest;
    interest.name = chain.producer->prefix().append("obj" + std::to_string(i));
    chain.user->express_interest(
        std::move(interest), [](const ndn::Data&, util::SimDuration) {}, /*face=*/0,
        /*timeout=*/util::seconds(1));
  }
  chain.topology.scheduler().run();
  EXPECT_EQ(chain.user->data_received(), 100u);
  return chain.topology.scheduler().heap_fallback_events();
}

TEST(Producer, FaultLinkFetchesScheduleNoHeapEvents) {
  // A fault-enabled link closes its conservation ledger in the delivery
  // closure itself, which still fits the inline event buffer.
  ScenarioParams params = lan_scenario_params(/*seed=*/17);
  params.core_link.faults.spike_probability = 0.5;
  params.core_link.faults.spike_delay = util::micros(200);
  const auto chain = make_probe_scenario(params);
  EXPECT_EQ(heap_events_over_100_fetches(*chain), 0u);
  const Forwarder& core = *chain->core.at(0);
  std::uint64_t deliveries = 0;
  for (FaceId face = 0; face < core.face_count(); ++face) {
    const FaceAccounting& acct = core.face_accounting(face);
    EXPECT_EQ(acct.packets_out, acct.losses + acct.deliveries) << "face " << face;
    deliveries += acct.deliveries;
  }
  EXPECT_EQ(deliveries, 200u) << "each fetch crosses the core's two fault links once";
}

TEST(Producer, TracedFetchesScheduleNoHeapEvents) {
  // With a tracer bound, the delivery closure names its packet in the
  // receiver's link_dequeue event without outgrowing the inline buffer.
  const auto chain = make_probe_scenario(lan_scenario_params(/*seed=*/17));
  util::Tracer tracer;
  util::TracerBinding binding(&tracer);
  EXPECT_EQ(heap_events_over_100_fetches(*chain), 0u);
  std::size_t dequeues = 0;
  for (const util::TraceEvent& event : tracer.events())
    if (event.type == util::TraceEventType::kLinkDequeue) ++dequeues;
  EXPECT_EQ(dequeues, 600u) << "six link crossings per fetch";
}

TEST(Producer, ChainSharesOneBufferEndToEnd) {
  // The producer's bytes are never copied: the consumer's Data and the
  // Data cached at the edge and at the core all point at one buffer.
  const auto chain = chain_with_payload(4'096);
  const ndn::Name name = chain->producer->prefix().append("shared");
  ndn::Payload received;
  chain->user->fetch(name, [&](const ndn::Data& data, util::SimDuration) {
    received = data.payload;
  });
  chain->topology.scheduler().run();
  ASSERT_EQ(received.size(), 4'096u);
  const cache::Entry* edge = chain->router->cs().prepare(name).existing();
  const cache::Entry* core = chain->core.at(0)->cs().prepare(name).existing();
  ASSERT_NE(edge, nullptr);
  ASSERT_NE(core, nullptr);
  EXPECT_EQ(edge->data.payload.view().data(), received.view().data());
  EXPECT_EQ(core->data.payload.view().data(), received.view().data());
}

TEST(Producer, GroupIdAssignedFromNamespace) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  ProducerConfig pcfg;
  pcfg.group_namespace_len = 2;
  Producer producer(sched, "P", ndn::Name("/p"), "key", pcfg, 2);
  connect(consumer, producer, fixed_link(1.0));

  std::optional<ndn::Data> seen;
  consumer.fetch(ndn::Name("/p/album/photo7"),
                 [&](const ndn::Data& data, util::SimDuration) { seen = data; });
  sched.run();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->group_id, "/p/album");
}

TEST(Producer, IgnoresInterestsOutsidePrefix) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  connect(consumer, producer, fixed_link(1.0));

  EXPECT_FALSE(fetch_blocking(consumer, {.name = ndn::Name("/elsewhere/x")}));
  EXPECT_EQ(producer.interests_unmatched(), 1u);
  EXPECT_EQ(producer.interests_served(), 0u);
}

TEST(Node, ConnectRejectsSelfLink) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  EXPECT_THROW(connect(consumer, consumer, fixed_link(1.0)), std::invalid_argument);
}

TEST(Node, PeerAccessor) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  const auto [cf, pf] = connect(consumer, producer, fixed_link(1.0));
  EXPECT_EQ(consumer.peer(cf).name(), "P");
  EXPECT_EQ(producer.peer(pf).name(), "C");
  EXPECT_THROW((void)consumer.peer(99), std::out_of_range);
}

TEST(Node, LossyLinkDropsPackets) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  LinkConfig lossy = fixed_link(1.0);
  lossy.loss_probability = 1.0;  // everything dropped
  connect(consumer, producer, lossy);
  EXPECT_FALSE(fetch_blocking(consumer, {.name = ndn::Name("/p/x")}));
  EXPECT_EQ(producer.interests_served(), 0u);
}

}  // namespace
}  // namespace ndnp::sim
