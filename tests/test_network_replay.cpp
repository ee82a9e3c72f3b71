#include "trace/network_replay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "core/policies.hpp"
#include "trace/stream.hpp"
#include "util/rng.hpp"

namespace ndnp::trace {
namespace {

Trace small_trace() {
  TraceGenConfig config;
  config.num_users = 24;
  config.num_objects = 2'000;
  config.num_requests = 8'000;
  config.num_domains = 40;
  config.duration_s = 3'600.0;
  config.seed = 17;
  return generate_trace(config);
}

NetworkReplayConfig base_config() {
  NetworkReplayConfig config;
  config.edge_routers = 3;
  config.edge_cache = 200;
  config.core_cache = 800;
  config.private_fraction = 0.2;
  config.time_compression = 2'000.0;
  config.seed = 5;
  return config;
}

TEST(NetworkReplay, AllRequestsComplete) {
  const Trace tr = small_trace();
  const NetworkReplayResult result = replay_over_network(tr, base_config());
  EXPECT_EQ(result.requests, tr.size());
  EXPECT_EQ(result.completed, tr.size());
  EXPECT_EQ(result.rtt_ms.size(), tr.size());
}

TEST(NetworkReplay, TierAccountingIsConsistent) {
  const Trace tr = small_trace();
  const NetworkReplayResult result = replay_over_network(tr, base_config());
  // Every request is served exactly once: edge hit, core hit, or origin.
  // (Interest collapsing can make the sum fall slightly short of the total
  // when concurrent requests share one upstream fetch.)
  EXPECT_LE(result.edge_hits + result.core_hits + result.producer_fetches, tr.size());
  EXPECT_GE(result.edge_hits + result.core_hits + result.producer_fetches,
            tr.size() * 95 / 100);
  EXPECT_GT(result.edge_hits, 0u);
  EXPECT_GT(result.core_hits, 0u);
  EXPECT_GT(result.producer_fetches, 0u);
}

TEST(NetworkReplay, EdgeHitsAreFastest) {
  // Sanity on the latency distribution: some requests complete at access-
  // link speed (edge hits), the slowest pay the full path to the origin.
  const Trace tr = small_trace();
  const NetworkReplayResult result = replay_over_network(tr, base_config());
  EXPECT_LT(result.rtt_ms.quantile(0.05), 2.0);   // edge hit: ~0.6 ms
  EXPECT_GT(result.rtt_ms.quantile(0.95), 10.0);  // origin fetch: ~20 ms+
}

TEST(NetworkReplay, EdgeOnlyPolicyLowersEdgeHitsOnly) {
  const Trace tr = small_trace();
  NetworkReplayConfig config = base_config();
  const NetworkReplayResult baseline = replay_over_network(tr, config);

  config.deployment = Deployment::kEdgeOnly;
  config.policy_factory = [] {
    return std::make_unique<core::AlwaysDelayPolicy>(
        core::AlwaysDelayPolicy::content_specific());
  };
  const NetworkReplayResult protected_edge = replay_over_network(tr, config);
  EXPECT_LT(protected_edge.edge_hits, baseline.edge_hits);
  // Hidden edge hits are still served from the edge cache (delayed), so
  // the core does NOT see extra traffic.
  EXPECT_LE(protected_edge.core_hits, baseline.core_hits + baseline.core_hits / 10);
}

TEST(NetworkReplay, EverywhereDeploymentAlsoHidesCoreHits) {
  const Trace tr = small_trace();
  NetworkReplayConfig config = base_config();
  config.policy_factory = [] {
    return std::make_unique<core::AlwaysDelayPolicy>(
        core::AlwaysDelayPolicy::content_specific());
  };
  config.deployment = Deployment::kEdgeOnly;
  const NetworkReplayResult edge_only = replay_over_network(tr, config);
  config.deployment = Deployment::kEverywhere;
  const NetworkReplayResult everywhere = replay_over_network(tr, config);
  EXPECT_LT(everywhere.core_hits, edge_only.core_hits);
  // Delay stacking: protecting the core adds latency on top.
  EXPECT_GE(everywhere.rtt_ms.quantile(0.5), edge_only.rtt_ms.quantile(0.5));
}

TEST(NetworkReplay, DeterministicAcrossRuns) {
  const Trace tr = small_trace();
  const NetworkReplayResult a = replay_over_network(tr, base_config());
  const NetworkReplayResult b = replay_over_network(tr, base_config());
  EXPECT_EQ(a.edge_hits, b.edge_hits);
  EXPECT_EQ(a.core_hits, b.core_hits);
  EXPECT_DOUBLE_EQ(a.rtt_ms.mean(), b.rtt_ms.mean());
}

TEST(NetworkReplay, ValidatesConfig) {
  const Trace tr = small_trace();
  NetworkReplayConfig config = base_config();
  config.edge_routers = 0;
  EXPECT_THROW((void)replay_over_network(tr, config), std::invalid_argument);
  config.edge_routers = 2;
  config.time_compression = 0.0;
  EXPECT_THROW((void)replay_over_network(tr, config), std::invalid_argument);
}

TEST(NetworkReplay, DeploymentNames) {
  EXPECT_EQ(to_string(Deployment::kNone), "none");
  EXPECT_EQ(to_string(Deployment::kEdgeOnly), "edge-only");
  EXPECT_EQ(to_string(Deployment::kEverywhere), "everywhere");
}

// --- Streaming replay + edge cases (docs/SCALE.md) -------------------------

TEST(NetworkReplay, StreamingReplayMatchesInMemoryReplay) {
  // The streaming overload interleaves scheduling with chunk pulls; for the
  // same records it must land on the exact same deployment-tree outcome.
  const Trace tr = small_trace();
  const NetworkReplayResult reference = replay_over_network(tr, base_config());
  VectorTraceSource source(tr);
  const NetworkReplayResult streamed =
      replay_over_network(source, base_config(), /*chunk_records=*/257);
  EXPECT_EQ(streamed.requests, reference.requests);
  EXPECT_EQ(streamed.completed, reference.completed);
  EXPECT_EQ(streamed.edge_hits, reference.edge_hits);
  EXPECT_EQ(streamed.core_hits, reference.core_hits);
  EXPECT_EQ(streamed.producer_fetches, reference.producer_fetches);
  EXPECT_DOUBLE_EQ(streamed.rtt_ms.mean(), reference.rtt_ms.mean());
  EXPECT_EQ(streamed.malformed_records, 0u);
}

TEST(NetworkReplay, EmptyTraceYieldsEmptyResult) {
  const Trace empty;
  const NetworkReplayResult in_memory = replay_over_network(empty, base_config());
  EXPECT_EQ(in_memory.requests, 0u);
  EXPECT_EQ(in_memory.completed, 0u);
  EXPECT_EQ(in_memory.rtt_ms.size(), 0u);

  VectorTraceSource source(empty);
  const NetworkReplayResult streamed = replay_over_network(source, base_config(), 64);
  EXPECT_EQ(streamed.requests, 0u);
  EXPECT_EQ(streamed.completed, 0u);
}

TEST(NetworkReplay, SingleUserDrivesExactlyOneEdgeRouter) {
  TraceGenConfig gen;
  gen.num_users = 1;
  gen.num_objects = 300;
  gen.num_requests = 1'000;
  gen.seed = 9;
  const Trace tr = generate_trace(gen);
  const NetworkReplayResult result = replay_over_network(tr, base_config());
  EXPECT_EQ(result.completed, tr.size());
  // All requests enter at edge user_id % 3 == 0; with one consumer behind
  // one edge there is no cross-edge sharing, so the core only ever sees
  // that edge's misses and can still hit on repeats.
  EXPECT_GT(result.edge_hits, 0u);
  // Interest collapsing can shave a few served-once requests off the sum.
  EXPECT_LE(result.edge_hits + result.core_hits + result.producer_fetches, tr.size());
  EXPECT_GE(result.edge_hits + result.core_hits + result.producer_fetches,
            tr.size() * 95 / 100);
}

TEST(NetworkReplay, FewerUsersThanEdgesLeavesIdleEdgesHarmless) {
  TraceGenConfig gen;
  gen.num_users = 2;
  gen.num_objects = 300;
  gen.num_requests = 800;
  gen.seed = 11;
  const Trace tr = generate_trace(gen);
  NetworkReplayConfig config = base_config();
  config.edge_routers = 8;  // 6 edges never receive a request
  const NetworkReplayResult result = replay_over_network(tr, config);
  EXPECT_EQ(result.completed, tr.size());
  EXPECT_EQ(result.rtt_ms.size(), tr.size());
}

TEST(NetworkReplay, CoreServesFanInAcrossEdges) {
  // Users on different edges requesting the same content: the first edge's
  // miss populates the core, the second edge's miss is served there without
  // touching the producer.
  Trace tr;
  const ndn::Name shared("/web/dom1/obj1");
  // user 0 -> edge 0, user 1 -> edge 1 (user_id % edge_routers).
  tr.records.push_back({1.0, 0, shared, 8'192});
  tr.records.push_back({2.0, 1, shared, 8'192});
  NetworkReplayConfig config = base_config();
  config.edge_routers = 2;
  // Real time: a full second between the requests, so the first fetch has
  // completed (and populated the core) before the second arrives.
  config.time_compression = 1.0;
  const NetworkReplayResult result = replay_over_network(tr, config);
  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.producer_fetches, 1u);
  EXPECT_EQ(result.core_hits, 1u);
  EXPECT_EQ(result.edge_hits, 0u);
}

TEST(NetworkReplay, StreamingRejectsAnUnsortedTrace) {
  Trace tr;
  tr.records.push_back({5.0, 0, ndn::Name("/web/dom1/obj1"), 8'192});
  tr.records.push_back({1.0, 1, ndn::Name("/web/dom1/obj2"), 8'192});
  VectorTraceSource source(tr);
  EXPECT_THROW((void)replay_over_network(source, base_config(), 64), std::invalid_argument);
  VectorTraceSource source2(tr);
  EXPECT_THROW((void)replay_over_network(source2, base_config(), 0), std::invalid_argument);
}

TEST(NetworkReplay, StreamingSurfacesMalformedLineCount) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ndnp_netreplay_malformed.trace").string();
  std::ofstream(path) << "0.5 0 /web/dom1/obj1 8192\n"
                      << "not a record\n"
                      << "1.5 1 /web/dom1/obj2 8192\n";
  TextTraceSource source(path, ParseOptions{.max_malformed = 3});
  const NetworkReplayResult result = replay_over_network(source, base_config(), 64);
  std::remove(path.c_str());
  EXPECT_EQ(result.requests, 2u);
  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.malformed_records, 1u);
}

/// Runs `replay` and expects the TraceParseError of a timestamp that time
/// compression pushes out of range (not, say, the streaming sortedness check).
template <typename Replay>
void expect_compression_error(Replay replay) {
  try {
    (void)replay();
    ADD_FAILURE() << "replay_over_network did not throw";
  } catch (const TraceParseError& error) {
    EXPECT_NE(std::string(error.what()).find("after time compression"), std::string::npos)
        << error.what();
  }
}

TEST(NetworkReplay, RejectsATimestampThatCompressionPushesOutOfRange) {
  // 1e9 s is 1e18 ns, which both readers accept; at time_compression 0.01
  // it becomes 1e20 ns, past SimTime's 2^63 ns. Every record's timestamp is
  // checked before any of its chunk replays, wherever the bad one sits.
  ASSERT_TRUE(replayable_timestamp(1e9));
  NetworkReplayConfig config = base_config();
  config.time_compression = 0.01;
  const TraceRecord bad{1e9, 1, ndn::Name("/web/dom1/bad"), 8'192};
  for (std::size_t position = 0; position < 3; ++position) {
    SCOPED_TRACE("bad record at position " + std::to_string(position));
    Trace tr;
    tr.records.push_back({0.5, 0, ndn::Name("/web/dom1/obj1"), 8'192});
    tr.records.push_back({1.5, 2, ndn::Name("/web/dom1/obj2"), 8'192});
    tr.records.insert(tr.records.begin() + static_cast<std::ptrdiff_t>(position), bad);
    expect_compression_error([&] { return replay_over_network(tr, config); });
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{64}}) {
      VectorTraceSource source(tr);
      expect_compression_error([&] { return replay_over_network(source, config, chunk); });
    }

    const std::string path =
        (std::filesystem::temp_directory_path() / "ndnp_netreplay_compressed.trace").string();
    {
      std::ofstream out(path);
      for (const TraceRecord& record : tr.records)
        out << record.timestamp_s << ' ' << record.user_id << ' ' << record.name.to_uri()
            << " 8192\n";
    }
    TextTraceSource text(path);
    expect_compression_error([&] { return replay_over_network(text, config, 64); });
    std::remove(path.c_str());
  }

  // Compressed into range, the same records replay.
  Trace tr;
  tr.records.push_back({0.5, 0, ndn::Name("/web/dom1/obj1"), 8'192});
  tr.records.push_back(bad);
  config.time_compression = 1e9;
  EXPECT_EQ(replay_over_network(tr, config).completed, 2u);
}

// An in-memory trace need not be sorted: it replays in (time, index) order,
// exactly as its sorted original (generate_trace gives distinct timestamps,
// so the index never breaks a tie here).
TEST(NetworkReplay, InMemoryReplayAcceptsAnUnsortedTrace) {
  const Trace sorted = small_trace();
  Trace shuffled = sorted;
  util::Rng rng(29);
  rng.shuffle(shuffled.records);
  ASSERT_FALSE(std::ranges::is_sorted(shuffled.records, {}, &TraceRecord::timestamp_s));

  const NetworkReplayResult reference = replay_over_network(sorted, base_config());
  const NetworkReplayResult result = replay_over_network(shuffled, base_config());
  EXPECT_EQ(result.requests, reference.requests);
  EXPECT_EQ(result.completed, reference.completed);
  EXPECT_EQ(result.edge_hits, reference.edge_hits);
  EXPECT_EQ(result.core_hits, reference.core_hits);
  EXPECT_EQ(result.producer_fetches, reference.producer_fetches);
  EXPECT_EQ(result.rtt_ms.mean(), reference.rtt_ms.mean());
  for (const double q : {0.05, 0.5, 0.95})
    EXPECT_EQ(result.rtt_ms.quantile(q), reference.rtt_ms.quantile(q)) << "q " << q;
}

}  // namespace
}  // namespace ndnp::trace
