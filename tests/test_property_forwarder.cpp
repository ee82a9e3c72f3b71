// Randomized stress/property tests of the forwarder: a star of consumers
// behind one router chained to a producer, driven with random overlapping
// fetches. Invariants checked per seed: every fetch completes, the PIT
// drains, the CS respects capacity, counters reconcile, and the whole run
// is bit-deterministic.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>

#include "sim/apps.hpp"
#include "sim/forwarder.hpp"

namespace ndnp::sim {
namespace {

struct StressResult {
  std::uint64_t completed = 0;
  std::uint64_t issued = 0;
  util::SimDuration total_rtt = 0;
  ForwarderStats router_stats;
  core::EngineStats router_outcomes;
  std::size_t final_pit = 0;
  std::size_t final_cs = 0;
};

StressResult run_stress(std::uint64_t seed, std::size_t consumers, std::size_t cs_capacity) {
  Scheduler sched;
  ForwarderConfig rcfg;
  rcfg.cs_capacity = cs_capacity;
  rcfg.processing_delay = util::micros(15);
  rcfg.seed = seed;
  Forwarder router(sched, "R", rcfg);
  Forwarder core(sched, "X", rcfg);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, seed + 1);

  LinkConfig access = lan_link(0.3, 0.1);
  LinkConfig backbone = wan_link(2.0, 0.3, 0.5);

  std::vector<std::unique_ptr<Consumer>> apps;
  for (std::size_t i = 0; i < consumers; ++i) {
    apps.push_back(
        std::make_unique<Consumer>(sched, std::string("C").append(std::to_string(i)), seed + 10 + i));
    connect(*apps.back(), router, access);
  }
  const auto [r_up, x_down] = connect(router, core, backbone);
  (void)x_down;
  const auto [x_up, p_down] = connect(core, producer, backbone);
  (void)p_down;
  router.add_route(ndn::Name("/p"), r_up);
  core.add_route(ndn::Name("/p"), x_up);

  StressResult result;
  util::Rng rng(seed);
  // Random overlapping fetches spread over 2 simulated seconds; a small
  // name pool forces collapsing and cache churn.
  constexpr std::size_t kRequests = 400;
  constexpr std::size_t kNamePool = 60;
  for (std::size_t i = 0; i < kRequests; ++i) {
    Consumer& app = *apps[rng.uniform_u64(apps.size())];
    const ndn::Name name = ndn::Name("/p/obj").append_number(rng.uniform_u64(kNamePool));
    const util::SimTime at = static_cast<util::SimTime>(rng.uniform_u64(
        static_cast<std::uint64_t>(util::seconds(2))));
    sched.schedule_at(at, [&app, &result, name] {
      result.issued++;
      app.fetch(name, [&result](const ndn::Data&, util::SimDuration rtt) {
        ++result.completed;
        result.total_rtt += rtt;
      });
    });
  }
  sched.run();

  result.router_stats = router.stats();
  result.router_outcomes = router.engine().stats();
  result.final_pit = router.pit_size();
  result.final_cs = router.cs().size();
  return result;
}

class ForwarderStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForwarderStress, AllFetchesCompleteAndInvariantsHold) {
  const StressResult result = run_stress(GetParam(), /*consumers=*/5, /*cs_capacity=*/32);

  // Liveness: lossless links, so every issued fetch completes.
  EXPECT_EQ(result.completed, result.issued);
  EXPECT_EQ(result.issued, 400u);

  // PIT drains once all data has flowed.
  EXPECT_EQ(result.final_pit, 0u);

  // CS bounded by capacity.
  EXPECT_LE(result.final_cs, 32u);

  // Counter reconciliation: every received interest is either answered
  // from the CS, collapsed, or forwarded (no other sink on this topology).
  const ForwarderStats& stats = result.router_stats;
  const core::EngineStats& outcomes = result.router_outcomes;
  EXPECT_EQ(stats.interests_received,
            outcomes.exposed_hits + outcomes.delayed_hits + stats.collapsed_interests +
                stats.forwarded_interests + stats.nonce_drops + stats.no_route_drops +
                stats.scope_drops + stats.pit_overflows);
  // Data received equals interests forwarded (lossless, one producer) less
  // any PIT expirations that raced; here nothing expires.
  EXPECT_EQ(stats.data_received, stats.forwarded_interests);
  EXPECT_EQ(stats.pit_expirations, 0u);
  // Everything the router received it forwarded to at least one consumer.
  EXPECT_GE(stats.data_forwarded, stats.data_received);
}

TEST_P(ForwarderStress, DeterministicAcrossIdenticalRuns) {
  const StressResult a = run_stress(GetParam(), 4, 16);
  const StressResult b = run_stress(GetParam(), 4, 16);
  EXPECT_EQ(a.total_rtt, b.total_rtt);
  EXPECT_EQ(a.router_outcomes.exposed_hits, b.router_outcomes.exposed_hits);
  EXPECT_EQ(a.router_stats.forwarded_interests, b.router_stats.forwarded_interests);
}

TEST_P(ForwarderStress, DifferentSeedsDiverge) {
  const StressResult a = run_stress(GetParam(), 4, 16);
  const StressResult b = run_stress(GetParam() + 1'000'000, 4, 16);
  EXPECT_NE(a.total_rtt, b.total_rtt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForwarderStress,
                         ::testing::Values(101, 202, 303, 404, 505),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(ForwarderStressLossy, SystemSurvivesHeavyLoss) {
  // With 20% loss everywhere nothing can be guaranteed about completion,
  // but the system must stay consistent: no crash, PIT eventually drains
  // via timeouts, counters still reconcile.
  Scheduler sched;
  ForwarderConfig rcfg;
  rcfg.cs_capacity = 16;
  rcfg.pit_timeout = util::millis(200);
  Forwarder router(sched, "R", rcfg);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 1);
  Consumer consumer(sched, "C", 2);

  LinkConfig lossy = lan_link(0.5, 0.1);
  lossy.loss_probability = 0.2;
  connect(consumer, router, lossy);
  const auto [up, down] = connect(router, producer, lossy);
  (void)down;
  router.add_route(ndn::Name("/p"), up);

  std::size_t completed = 0;
  util::Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    const util::SimTime at = static_cast<util::SimTime>(
        rng.uniform_u64(static_cast<std::uint64_t>(util::seconds(1))));
    sched.schedule_at(at, [&consumer, &completed, i] {
      consumer.fetch(ndn::Name("/p/o").append_number(static_cast<std::uint64_t>(i % 40)),
                     [&completed](const ndn::Data&, util::SimDuration) { ++completed; });
    });
  }
  sched.run();
  EXPECT_GT(completed, 100u);  // plenty still succeed
  EXPECT_EQ(router.pit_size(), 0u);
  EXPECT_LE(router.cs().size(), 16u);
}

}  // namespace
}  // namespace ndnp::sim
