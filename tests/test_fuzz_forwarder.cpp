// Model-based forwarder fuzzing (sim/chaos.hpp, oracle/differential.hpp): seeded random episodes
// against a multi-node faulty topology with the invariant layer armed, and
// a differential op stream cross-checked against the naive reference
// forwarder. Plus regression tests for bugs the fuzzer found.
#include "sim/chaos.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "oracle/differential.hpp"
#include "runner/runner.hpp"
#include "sim/apps.hpp"
#include "sim/forwarder.hpp"
#include "util/invariant.hpp"

namespace ndnp::sim {
namespace {

TEST(FuzzForwarder, DifferentialEpisodesMatchReference) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const DifferentialResult result = run_differential_episode(seed, 1200);
    EXPECT_EQ(result.ops, 1200u);
    EXPECT_TRUE(result.ok()) << result.first_divergence;
    if (!result.ok()) break;  // one full reproduction message is enough
  }
}

// This episode refetches a stale entry and then sends a MustBeFresh
// interest inside the new freshness period. The forwarder and the
// reference agree only if both restart freshness on the refetch.
TEST(FuzzForwarder, DifferentialEpisodeWithStaleRefetchMatchesReference) {
  const DifferentialResult result = run_differential_episode(8097875853865443356ULL);
  EXPECT_EQ(result.ops, 1500u);
  EXPECT_TRUE(result.ok()) << result.first_divergence;
}

TEST(FuzzForwarder, ChaosEpisodesHoldInvariants) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ChaosEpisodeOptions options;
    options.seed = runner::run_seed(0x9c0deULL, seed);
    const ChaosEpisodeResult result = run_chaos_episode(options);
    EXPECT_TRUE(result.ok()) << "seed " << options.seed << ": " << result.violation;
    EXPECT_GT(result.events_processed, 0u);
    if (!result.ok()) break;
  }
}

TEST(FuzzForwarder, ChaosEpisodeDigestIsReproducible) {
  ChaosEpisodeOptions options;
  options.seed = 0xfeedULL;
  const ChaosEpisodeResult a = run_chaos_episode(options);
  const ChaosEpisodeResult b = run_chaos_episode(options);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.link_faults.total(), b.link_faults.total());
}

TEST(FuzzForwarder, ChaosSweepByteIdenticalAcrossJobs) {
  constexpr std::size_t kEpisodes = 12;
  const auto sweep = [](std::size_t jobs) {
    runner::SweepOptions options;
    options.jobs = jobs;
    options.master_seed = 77;
    return runner::run_sweep<ChaosEpisodeResult>(
        kEpisodes, options, [](const runner::RunContext& ctx) {
          ChaosEpisodeOptions episode;
          episode.seed = ctx.seed;
          episode.interests = 150;
          return run_chaos_episode(episode);
        });
  };
  const std::vector<ChaosEpisodeResult> j1 = sweep(1);
  const std::vector<ChaosEpisodeResult> j4 = sweep(4);
  const std::vector<ChaosEpisodeResult> j8 = sweep(8);
  ASSERT_EQ(j1.size(), kEpisodes);
  for (std::size_t i = 0; i < kEpisodes; ++i) {
    EXPECT_EQ(j1[i].digest, j4[i].digest) << "episode " << i;
    EXPECT_EQ(j1[i].digest, j8[i].digest) << "episode " << i;
    EXPECT_TRUE(j1[i].ok()) << j1[i].violation;
  }
}

// --- regressions for fuzzer-found bugs ------------------------------------

/// Terminal node that swallows whatever reaches it.
class SinkNode final : public Node {
 public:
  SinkNode(Scheduler& scheduler, std::string name) : Node(scheduler, std::move(name), 1) {}
  void receive_interest(const ndn::Interest&, FaceId) override {}
  void receive_data(const ndn::Data&, FaceId) override {}
};

/// Found by the differential fuzzer: an interest whose decoded lifetime is
/// negative (hostile or bit-flipped on the wire) used to reach
/// Scheduler::schedule_in with a negative delay, aborting the whole
/// simulation with std::logic_error. The forwarder must clamp instead.
TEST(FuzzForwarder, NegativeInterestLifetimeIsClampedNotFatal) {
  Scheduler scheduler;
  ForwarderConfig config;
  config.processing_delay = 0;
  Forwarder forwarder(scheduler, "R", config);
  SinkNode down(scheduler, "down");
  SinkNode up(scheduler, "up");
  connect(down, forwarder, {});
  const auto [to_up, from_up] = connect(forwarder, up, {});
  (void)from_up;
  forwarder.add_route(ndn::Name("/p"), to_up);

  ndn::Interest hostile;
  hostile.name = ndn::Name("/p/x");
  hostile.nonce = 7;
  hostile.lifetime = -util::millis(5);
  forwarder.receive_interest(hostile, 0);
  EXPECT_NO_THROW(scheduler.run());

  // Clamped to a zero lifetime: the entry was created, then expired in the
  // same instant — no leak, no resident state.
  EXPECT_EQ(forwarder.stats().pit_inserts, 1u);
  EXPECT_EQ(forwarder.stats().pit_expirations, 1u);
  EXPECT_EQ(forwarder.pit_size(), 0u);
  EXPECT_EQ(forwarder.stats().forwarded_interests, 1u);
  EXPECT_NO_THROW(forwarder.check_invariants());
}

/// Companion boundary case: an explicit zero lifetime behaves identically
/// (entry created and expired at the same timestamp), and a sane lifetime
/// expires exactly once — the PIT conservation ledger stays balanced.
TEST(FuzzForwarder, ZeroLifetimeExpiresImmediatelyWithoutLeak) {
  Scheduler scheduler;
  ForwarderConfig config;
  config.processing_delay = 0;
  Forwarder forwarder(scheduler, "R", config);
  SinkNode down(scheduler, "down");
  SinkNode up(scheduler, "up");
  connect(down, forwarder, {});
  const auto [to_up, from_up] = connect(forwarder, up, {});
  (void)from_up;
  forwarder.add_route(ndn::Name("/p"), to_up);

  ndn::Interest zero;
  zero.name = ndn::Name("/p/zero");
  zero.nonce = 1;
  zero.lifetime = 0;
  forwarder.receive_interest(zero, 0);

  ndn::Interest normal;
  normal.name = ndn::Name("/p/normal");
  normal.nonce = 2;
  normal.lifetime = util::millis(3);
  forwarder.receive_interest(normal, 0);

  scheduler.run();
  EXPECT_EQ(forwarder.stats().pit_inserts, 2u);
  EXPECT_EQ(forwarder.stats().pit_expirations, 2u);
  EXPECT_EQ(forwarder.pit_size(), 0u);
  EXPECT_NO_THROW(forwarder.check_invariants());
}

}  // namespace
}  // namespace ndnp::sim
