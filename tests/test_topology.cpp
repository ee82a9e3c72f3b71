#include "sim/topology.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <ostream>

#include "core/policies.hpp"
#include "sim/fetch_util.hpp"

namespace ndnp::sim {
namespace {

util::SimDuration fetch(Consumer& consumer, const ndn::Name& name) {
  const std::optional<util::SimDuration> rtt = fetch_blocking(consumer, {.name = name});
  EXPECT_TRUE(rtt.has_value());
  return rtt.value_or(-1);
}

TEST(Topology, AddAndLinkNodes) {
  Topology topo(1);
  Forwarder& r = topo.add_router("R", {});
  Consumer& c = topo.add_consumer("C");
  Producer& p = topo.add_producer("P", ndn::Name("/p"), {});
  topo.link(c, r, lan_link());
  const auto [rf, pf] = topo.link(r, p, lan_link());
  (void)pf;
  r.add_route(ndn::Name("/p"), rf);
  EXPECT_EQ(r.face_count(), 2u);
  (void)fetch(c, ndn::Name("/p/x"));
  EXPECT_EQ(p.interests_served(), 1u);
}

TEST(Topology, ScenarioRequiresAtLeastOneHop) {
  ScenarioParams params = lan_scenario_params(1);
  params.core_hops = 0;
  EXPECT_THROW((void)make_probe_scenario(params), std::invalid_argument);
}

struct CannedScenario {
  const char* name;
  ScenarioParams (*make)(std::uint64_t);

  // gtest prints GetParam() into the test name; the default printer would
  // show the (address-randomized) pointers and make the name differ per build.
  friend void PrintTo(const CannedScenario& s, std::ostream* os) { *os << s.name; }
};

class ScenarioSweep : public ::testing::TestWithParam<CannedScenario> {};

TEST_P(ScenarioSweep, UserAndAdversaryCanBothFetch) {
  const auto scenario = make_probe_scenario(GetParam().make(7));
  const ndn::Name name = scenario->producer->prefix().append("content");
  const util::SimDuration user_rtt = fetch(*scenario->user, name);
  EXPECT_GT(user_rtt, 0);
  // Content is now at R: adversary's probe is strictly faster than the
  // user's cold fetch in every scenario (the attack's foundation).
  const util::SimDuration adv_rtt = fetch(*scenario->adversary, name);
  EXPECT_LT(adv_rtt, user_rtt);
  EXPECT_TRUE(scenario->router->cs().contains(name));
}

TEST_P(ScenarioSweep, CoreChainLengthMatchesParams) {
  const ScenarioParams params = GetParam().make(11);
  const auto scenario = make_probe_scenario(params);
  EXPECT_EQ(scenario->core.size(), params.core_hops - 1);
}

INSTANTIATE_TEST_SUITE_P(Canned, ScenarioSweep,
                         ::testing::Values(CannedScenario{"lan", &lan_scenario_params},
                                           CannedScenario{"wan", &wan_scenario_params},
                                           CannedScenario{"producer",
                                                          &producer_adjacent_scenario_params},
                                           CannedScenario{"localhost",
                                                          &local_host_scenario_params}),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(Topology, PolicyFactoryInstallsAtRouter) {
  ScenarioParams params = lan_scenario_params(3);
  params.router_policy = [] {
    return std::make_unique<core::AlwaysDelayPolicy>(
        core::AlwaysDelayPolicy::content_specific());
  };
  const auto scenario = make_probe_scenario(params);
  EXPECT_EQ(scenario->router->policy().name(), "AlwaysDelay");
}

TEST(Topology, DefaultPolicyIsNoPrivacy) {
  const auto scenario = make_probe_scenario(lan_scenario_params(4));
  EXPECT_EQ(scenario->router->policy().name(), "NoPrivacy");
}

TEST(Topology, DeterministicAcrossRuns) {
  const auto run_once = [](std::uint64_t seed) {
    const auto scenario = make_probe_scenario(wan_scenario_params(seed));
    return fetch(*scenario->user, scenario->producer->prefix().append("x"));
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));  // different seed, different jitter
}

TEST(Topology, ProducerAdjacentScenarioHasSmallHitMissGap) {
  // The defining property of Figure 3(c): the R<->P delta is small
  // relative to the consumer-path RTT.
  const auto scenario = make_probe_scenario(producer_adjacent_scenario_params(8));
  const ndn::Name name = scenario->producer->prefix().append("c");
  const util::SimDuration miss = fetch(*scenario->adversary, name);
  const util::SimDuration hit = fetch(*scenario->adversary, name);
  EXPECT_LT(miss - hit, miss / 10);  // gap under 10 % of the total RTT
}

TEST(Topology, LocalHostScenarioHasLargeRelativeGap) {
  // Figure 3(d): local IPC hit vs network miss differ by an order of
  // magnitude.
  const auto scenario = make_probe_scenario(local_host_scenario_params(9));
  const ndn::Name name = scenario->producer->prefix().append("c");
  const util::SimDuration miss = fetch(*scenario->adversary, name);
  const util::SimDuration hit = fetch(*scenario->adversary, name);
  EXPECT_GT(miss, 4 * hit);
}

}  // namespace
}  // namespace ndnp::sim
