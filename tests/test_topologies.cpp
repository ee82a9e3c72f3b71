// Routing-topology integration tests beyond simple chains: rings (loop
// suppression) and trees (aggregation + collapsing across branches).
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

ForwarderConfig router_config(std::uint64_t seed) {
  ForwarderConfig cfg;
  cfg.cs_capacity = 0;
  cfg.pit_timeout = util::millis(300);
  cfg.seed = seed;
  return cfg;
}

TEST(RingTopology, LoopingInterestSuppressedByNonce) {
  // R1 -> R2 -> R3 -> R1 default routes: an interest for an unserved name
  // circulates once and dies at the nonce check; no router melts down.
  Scheduler sched;
  Forwarder r1(sched, "R1", router_config(1));
  Forwarder r2(sched, "R2", router_config(2));
  Forwarder r3(sched, "R3", router_config(3));
  Consumer consumer(sched, "C", 4);

  connect(consumer, r1, fixed_link(0.5));               // C = face 0 of R1
  const auto [r1_to_r2, r2_from_r1] = connect(r1, r2, fixed_link(1.0));
  const auto [r2_to_r3, r3_from_r2] = connect(r2, r3, fixed_link(1.0));
  const auto [r3_to_r1, r1_from_r3] = connect(r3, r1, fixed_link(1.0));
  (void)r2_from_r1;
  (void)r3_from_r2;
  (void)r1_from_r3;
  r1.add_route(ndn::Name(), r1_to_r2);
  r2.add_route(ndn::Name(), r2_to_r3);
  r3.add_route(ndn::Name(), r3_to_r1);

  EXPECT_FALSE(fetch_blocking(consumer, {.name = ndn::Name("/phantom/content")}));
  EXPECT_EQ(r1.stats().nonce_drops, 1u);  // the loop closed exactly once
  EXPECT_EQ(r1.stats().forwarded_interests, 1u);
  EXPECT_EQ(r2.stats().forwarded_interests, 1u);
  EXPECT_EQ(r3.stats().forwarded_interests, 1u);
  // All PIT entries eventually time out.
  EXPECT_EQ(r1.pit_size(), 0u);
  EXPECT_EQ(r2.pit_size(), 0u);
  EXPECT_EQ(r3.pit_size(), 0u);
}

TEST(TreeTopology, CollapsingAggregatesAcrossBranches) {
  // Four leaves under two edges under one core: near-simultaneous requests
  // for one name from all leaves reach the producer exactly once.
  Scheduler sched;
  Forwarder core(sched, "core", router_config(1));
  Forwarder edge1(sched, "E1", router_config(2));
  Forwarder edge2(sched, "E2", router_config(3));
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 4);
  std::vector<std::unique_ptr<Consumer>> leaves;

  const auto [c_p, p_c] = connect(core, producer, fixed_link(4.0));
  (void)p_c;
  core.add_route(ndn::Name("/p"), c_p);
  for (Forwarder* edge : {&edge1, &edge2}) {
    const auto [e_c, c_e] = connect(*edge, core, fixed_link(1.0));
    (void)c_e;
    edge->add_route(ndn::Name("/p"), e_c);
  }
  for (int i = 0; i < 4; ++i) {
    leaves.push_back(std::make_unique<Consumer>(sched, std::string("L").append(std::to_string(i)),
                                                static_cast<std::uint64_t>(10 + i)));
    connect(*leaves.back(), i < 2 ? edge1 : edge2, fixed_link(0.3));
  }

  int delivered = 0;
  for (auto& leaf : leaves)
    leaf->fetch(ndn::Name("/p/live/segment1"),
                [&delivered](const ndn::Data&, util::SimDuration) { ++delivered; });
  sched.run();

  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(producer.interests_served(), 1u);  // full aggregation
  EXPECT_EQ(edge1.stats().collapsed_interests, 1u);
  EXPECT_EQ(edge2.stats().collapsed_interests, 1u);
  EXPECT_EQ(core.stats().collapsed_interests, 1u);
}

TEST(TreeTopology, SecondWaveServedFromEdgeCaches) {
  Scheduler sched;
  ForwarderConfig cfg = router_config(1);
  cfg.cs_capacity = 100;
  Forwarder core(sched, "core", cfg);
  Forwarder edge(sched, "E", cfg);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  Consumer first(sched, "C1", 3);
  Consumer second(sched, "C2", 4);

  const auto [c_p, p_c] = connect(core, producer, fixed_link(4.0));
  (void)p_c;
  core.add_route(ndn::Name("/p"), c_p);
  const auto [e_c, c_e] = connect(edge, core, fixed_link(1.0));
  (void)c_e;
  edge.add_route(ndn::Name("/p"), e_c);
  connect(first, edge, fixed_link(0.3));
  connect(second, edge, fixed_link(0.3));

  const auto cold = fetch_blocking(first, {.name = ndn::Name("/p/x")});
  const auto warm = fetch_blocking(second, {.name = ndn::Name("/p/x")});
  ASSERT_TRUE(cold && warm);
  EXPECT_GT(*cold, util::millis(10));
  EXPECT_LT(*warm, util::millis(2));  // edge cache answered
  EXPECT_EQ(producer.interests_served(), 1u);
}

}  // namespace
}  // namespace ndnp::sim
