// Sharded replay (runner/sharded_replay.hpp): determinism by construction
// and the statistical-regression layer.
//
// The determinism contract — merged output byte-identical for any --jobs
// value — is what lets CI run the scale smoke with 8 workers and compare
// against a single-threaded run with `cmp`. The chi-square/TV property test
// locks the *statistical* contract: splitting one router into S independent
// shards changes cache dynamics, so per-policy outcome distributions
// (exposed/delayed/simulated-miss/true-miss) must stay within a locked
// distance of the unsharded replay, not byte-equal. See docs/SCALE.md.
#include "runner/sharded_replay.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "runner/runner.hpp"
#include "trace/stream.hpp"
#include "util/fault_model.hpp"
#include "util/stats.hpp"

namespace ndnp::runner {
namespace {

trace::Trace small_trace() {
  trace::TraceGenConfig config;
  config.num_users = 24;
  config.num_objects = 2'000;
  config.num_requests = 8'000;
  config.seed = 17;
  return trace::generate_trace(config);
}

ShardedReplayConfig base_config() {
  ShardedReplayConfig config;
  config.shards = 4;
  config.master_seed = 99;
  config.replay.cache_capacity = 200;
  config.replay.policy_factory = [] {
    return core::RandomCachePolicy::exponential(0.999, 201, 5);
  };
  return config;
}

// --- Determinism by construction -------------------------------------------

TEST(ShardedReplay, MergedOutputByteIdenticalAcrossJobs) {
  const trace::Trace tr = small_trace();
  ShardedReplayConfig config = base_config();
  config.jobs = 1;
  const std::string serial = replay_sharded(tr, config).merged_json();
  for (const std::size_t jobs : {2, 4, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    config.jobs = jobs;
    EXPECT_EQ(replay_sharded(tr, config).merged_json(), serial);
  }
}

TEST(ShardedReplay, DeterministicAcrossInvocations) {
  const trace::Trace tr = small_trace();
  const ShardedReplayConfig config = base_config();
  EXPECT_EQ(replay_sharded(tr, config).merged_json(),
            replay_sharded(tr, config).merged_json());
}

TEST(ShardedReplay, ChunkSizeNeverChangesTheResult) {
  const trace::Trace tr = small_trace();
  ShardedReplayConfig config = base_config();
  config.chunk_records = 64 * 1024;
  const std::string big_chunks = replay_sharded(tr, config).merged_json();
  config.chunk_records = 61;  // forces many refills, never divides evenly
  EXPECT_EQ(replay_sharded(tr, config).merged_json(), big_chunks);
}

TEST(ShardedReplay, RecordsPartitionExactlyAcrossShards) {
  const trace::Trace tr = small_trace();
  const ShardedReplayConfig config = base_config();
  const ShardedReplayResult result = replay_sharded(tr, config);
  ASSERT_EQ(result.shards.size(), config.shards);
  EXPECT_EQ(result.records, tr.size());

  std::vector<std::uint64_t> expected(config.shards, 0);
  for (const trace::TraceRecord& record : tr.records)
    ++expected[trace::shard_of(record.user_id, config.shards)];
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < config.shards; ++i) {
    EXPECT_EQ(result.shards[i].records, expected[i]) << "shard " << i;
    EXPECT_EQ(result.shards[i].result.stats.requests, expected[i]) << "shard " << i;
    total += result.shards[i].records;
  }
  EXPECT_EQ(total, tr.size());
}

TEST(ShardedReplay, SharedPrivateClassMatchesUnshardedExactly) {
  // Every shard gets its own engine/delay RNG stream but one shared
  // private_class_seed, and is_private_content is a pure function of
  // (name, fraction, class seed) — so the total private-request count must
  // equal the unsharded replay's, exactly, not statistically.
  const trace::Trace tr = small_trace();
  ShardedReplayConfig config = base_config();
  config.replay.private_class_seed = 4242;
  const ShardedReplayResult sharded = replay_sharded(tr, config);

  trace::ReplayConfig unsharded = base_config().replay;
  unsharded.seed = 1;
  unsharded.private_class_seed = 4242;
  const trace::ReplayResult reference = trace::replay(tr, unsharded);

  std::uint64_t private_requests = 0;
  for (const ShardReplayResult& shard : sharded.shards)
    private_requests += shard.result.private_requests;
  EXPECT_EQ(private_requests, reference.private_requests);
}

// --- One snapshot spelling ---------------------------------------------------

std::vector<std::string> counter_names(const util::MetricsSnapshot& snap) {
  std::vector<std::string> names;
  for (const auto& entry : snap.counters) names.push_back(entry.first);
  return names;
}

std::vector<std::string> gauge_names(const util::MetricsSnapshot& snap) {
  std::vector<std::string> names;
  for (const auto& entry : snap.gauges) names.push_back(entry.first);
  return names;
}

TEST(ShardedReplay, ReplaySnapshotHasTheShardKeysAndAgreesWithItsResult) {
  const trace::Trace tr = small_trace();
  ShardedReplayConfig config = base_config();
  config.replay.upstream_loss = util::GilbertElliottConfig::from_loss_and_burst(0.05, 4.0);
  const ShardedReplayResult sharded = replay_sharded(tr, config);
  const trace::ReplayResult result = trace::replay(tr, config.replay);
  const util::MetricsSnapshot& snap = result.metrics;

  for (const ShardReplayResult& shard : sharded.shards) {
    EXPECT_EQ(counter_names(snap), counter_names(shard.result.metrics));
    EXPECT_EQ(gauge_names(snap), gauge_names(shard.result.metrics));
  }
  EXPECT_EQ(snap.counters.at("replay.records"), tr.size());
  EXPECT_EQ(snap.counters.at("replay.private_requests"), result.private_requests);
  EXPECT_EQ(snap.counters.at("replay.upstream_losses"), result.upstream_losses);
  EXPECT_EQ(snap.counters.at("replay.degraded_fetches"), result.degraded_fetches);
  EXPECT_GT(result.upstream_losses, 0u);
  EXPECT_EQ(snap.counters.at("engine.requests"), result.stats.requests);
  EXPECT_EQ(snap.counters.at("engine.exposed_hits"), result.stats.exposed_hits);
  EXPECT_DOUBLE_EQ(snap.gauges.at("replay.hit_rate_pct"), result.hit_rate_pct());
  EXPECT_DOUBLE_EQ(snap.gauges.at("replay.cache_served_pct"), result.cache_served_pct());
  EXPECT_EQ(snap.gauges.at("replay.mean_response_ms"), result.mean_response_ms);
}

TEST(ShardedReplay, OneShardReportsItsReplaySnapshot) {
  const trace::Trace tr = small_trace();
  ShardedReplayConfig config = base_config();
  config.shards = 1;
  const ShardedReplayResult sharded = replay_sharded(tr, config);
  ASSERT_EQ(sharded.shards.size(), 1u);
  const std::string shard_json = sharded.shards[0].result.metrics.to_json();
  EXPECT_EQ(sharded.merged_json().rfind("{\"shards\":[" + shard_json + "],", 0), 0u);

  // The one shard is a plain replay with the shard's seeds.
  trace::ReplayConfig plain = config.replay;
  plain.seed = run_seed(config.master_seed, 0);
  plain.private_class_seed = run_seed(config.master_seed, 1);
  EXPECT_EQ(trace::replay(tr, plain).metrics.to_json(), shard_json);
}

// --- The source's shard hint ------------------------------------------------

/// Forwards a source and counts the records it hands out. With
/// `forward_hint` false it ignores select_shard, so each shard reads the
/// whole trace and the runner's own filter does all the work.
class CountingSource final : public trace::TraceSource {
 public:
  CountingSource(std::unique_ptr<trace::TraceSource> inner, bool forward_hint,
                 std::atomic<std::uint64_t>& delivered)
      : inner_(std::move(inner)), forward_hint_(forward_hint), delivered_(delivered) {}

  void select_shard(std::size_t shard, std::size_t shards) override {
    if (forward_hint_) inner_->select_shard(shard, shards);
  }
  bool next_chunk(std::vector<trace::TraceRecord>& out, std::size_t max_records) override {
    const bool more = inner_->next_chunk(out, max_records);
    delivered_ += out.size();
    return more;
  }
  void rewind() override { inner_->rewind(); }
  [[nodiscard]] const trace::ParseStats& stats() const noexcept override {
    return inner_->stats();
  }
  [[nodiscard]] std::size_t catalogue_size() const noexcept override {
    return inner_->catalogue_size();
  }

 private:
  std::unique_ptr<trace::TraceSource> inner_;
  bool forward_hint_;
  std::atomic<std::uint64_t>& delivered_;
};

TEST(ShardedReplay, ShardHintNeverChangesTheResult) {
  // The bench/e2e replay_sharded shape, at 50k requests.
  trace::TraceGenConfig gen;
  gen.num_users = 100'000;
  gen.num_objects = 1'000'000;
  gen.num_domains = 2'000;
  gen.num_requests = 50'000;
  gen.zipf_exponent = 0.8;
  gen.seed = 2013;
  const trace::SyntheticWorkload workload(gen);
  ShardedReplayConfig config = base_config();
  config.shards = 8;
  config.replay.cache_capacity = 8'000;
  config.replay.private_fraction = 0.2;

  std::string first;
  for (const std::size_t jobs : {1u, 2u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    config.jobs = jobs;
    std::atomic<std::uint64_t> hinted_reads{0};
    std::atomic<std::uint64_t> unhinted_reads{0};
    const TraceSourceFactory open_hinted = [&] {
      return std::make_unique<CountingSource>(workload.open(), true, hinted_reads);
    };
    const TraceSourceFactory open_unhinted = [&] {
      return std::make_unique<CountingSource>(workload.open(), false, unhinted_reads);
    };
    const std::string hinted = replay_sharded(open_hinted, config).merged_json();
    const std::string unhinted = replay_sharded(open_unhinted, config).merged_json();
    EXPECT_EQ(hinted, unhinted);
    if (first.empty()) first = hinted;
    EXPECT_EQ(hinted, first);
    // The runner hints every shard: hinted, the sources hand out each record
    // once; unhinted, every shard reads the whole trace.
    EXPECT_EQ(hinted_reads.load(), gen.num_requests);
    EXPECT_EQ(unhinted_reads.load(), config.shards * gen.num_requests);
  }
}

// --- Edge cases -------------------------------------------------------------

TEST(ShardedReplay, EmptyTraceYieldsEmptyMerge) {
  const trace::Trace empty;
  const ShardedReplayResult result = replay_sharded(empty, base_config());
  EXPECT_EQ(result.records, 0u);
  EXPECT_EQ(result.malformed_records, 0u);
  for (const ShardReplayResult& shard : result.shards) EXPECT_EQ(shard.records, 0u);
  EXPECT_FALSE(result.merged_json().empty());
}

TEST(ShardedReplay, SingleUserLandsOnExactlyOneShard) {
  trace::TraceGenConfig gen;
  gen.num_users = 1;
  gen.num_objects = 500;
  gen.num_requests = 1'000;
  gen.seed = 5;
  const trace::Trace tr = trace::generate_trace(gen);
  const ShardedReplayResult result = replay_sharded(tr, base_config());
  std::size_t active_shards = 0;
  for (const ShardReplayResult& shard : result.shards)
    if (shard.records > 0) ++active_shards;
  EXPECT_EQ(active_shards, 1u);
  EXPECT_EQ(result.records, tr.size());
}

TEST(ShardedReplay, MoreShardsThanUsersLeavesIdleShardsHarmless) {
  const trace::Trace tr = small_trace();  // 24 users
  ShardedReplayConfig config = base_config();
  config.shards = 64;
  config.jobs = 4;
  const ShardedReplayResult result = replay_sharded(tr, config);
  EXPECT_EQ(result.records, tr.size());
  EXPECT_EQ(result.shards.size(), 64u);
  // Idle shards contribute empty snapshots; totals still add up.
  EXPECT_EQ(result.merged.counters.at("replay.records"), tr.size());
}

TEST(ShardedReplay, MalformedLinesSurfaceInTheMergedResult) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ndnp_sharded_malformed.trace").string();
  std::ofstream(path) << "0.5 3 /web/dom1/obj1 8192\n"
                      << "garbage\n"
                      << "1.5 7 /web/dom1/obj2 8192\n";
  ShardedReplayConfig config = base_config();
  config.shards = 2;
  const trace::ParseOptions options{.max_malformed = 5};
  const ShardedReplayResult result = replay_sharded(
      [&] { return trace::open_trace_source(path, options); }, config);
  std::remove(path.c_str());
  EXPECT_EQ(result.records, 2u);
  // Every shard scans the full file; the count is reported once, not
  // once per shard.
  EXPECT_EQ(result.malformed_records, 1u);
  EXPECT_EQ(result.merged.counters.at("replay.malformed_records"), 1u);
  EXPECT_NE(result.merged_json().find("\"malformed_records\":1"), std::string::npos);
}

// --- Statistical-regression layer ------------------------------------------
// Each shard is an edge router of the SAME cache size serving a quarter of
// the users: under the independent-reference model a cache's hit rate
// depends on its size against the popularity distribution, not on how many
// requests flow through it, so every shard is statistically a clone of the
// unsharded router and the per-request outcome distribution
// {exposed, delayed, simulated-miss, true-miss} must agree up to sampling
// noise and per-shard cold-start. The property locked here: for each
// policy, the sharded distribution stays within a fixed chi-square
// statistic and total-variation distance of the unsharded replay on the
// same trace. The bounds are regression tripwires calibrated with ~2x
// headroom over the observed values at these locked seeds — a change that
// pushes past them has altered replay semantics, not just reshuffled RNG.

std::vector<std::uint64_t> outcome_vector(const core::EngineStats& stats) {
  return {stats.exposed_hits, stats.delayed_hits, stats.simulated_misses,
          stats.true_misses};
}

TEST(ShardedReplay, OutcomeDistributionMatchesUnshardedWithinLockedBounds) {
  trace::TraceGenConfig gen;
  gen.num_users = 185;
  gen.num_objects = 2'000;
  gen.num_requests = 80'000;
  gen.seed = 2013;
  const trace::Trace tr = trace::generate_trace(gen);

  struct PolicyCase {
    const char* name;
    std::function<std::unique_ptr<core::CachePrivacyPolicy>()> factory;
    double max_chi_square;
    double max_tv;
  };
  const PolicyCase cases[] = {
      // Observed at these seeds: chi^2 = 178.4, TV = 0.0271.
      {"random-cache-exponential",
       [] { return core::RandomCachePolicy::exponential(0.999, 201, 5); }, 400.0, 0.06},
      // Observed at these seeds: chi^2 = 21.7, TV = 0.0106.
      {"always-delay",
       [] {
         return std::make_unique<core::AlwaysDelayPolicy>(
             core::AlwaysDelayPolicy::content_specific());
       },
       50.0, 0.025},
  };

  for (const PolicyCase& policy_case : cases) {
    SCOPED_TRACE(policy_case.name);

    trace::ReplayConfig unsharded;
    unsharded.cache_capacity = 800;
    unsharded.private_fraction = 0.2;
    unsharded.policy_factory = policy_case.factory;
    unsharded.seed = 7;
    unsharded.private_class_seed = 4242;
    const trace::ReplayResult reference = trace::replay(tr, unsharded);

    ShardedReplayConfig config;
    config.shards = 4;
    config.master_seed = 7;
    config.replay = unsharded;  // same per-router cache size, see above
    const ShardedReplayResult sharded = replay_sharded(tr, config);

    core::EngineStats merged_stats;
    for (const ShardReplayResult& shard : sharded.shards) {
      merged_stats.exposed_hits += shard.result.stats.exposed_hits;
      merged_stats.delayed_hits += shard.result.stats.delayed_hits;
      merged_stats.simulated_misses += shard.result.stats.simulated_misses;
      merged_stats.true_misses += shard.result.stats.true_misses;
    }

    const std::vector<std::uint64_t> a = outcome_vector(reference.stats);
    const std::vector<std::uint64_t> b = outcome_vector(merged_stats);
    const double chi_square = util::chi_square_statistic(a, b);
    const double tv = util::total_variation(a, b);
    EXPECT_LT(chi_square, policy_case.max_chi_square)
        << "sharded outcome distribution drifted from unsharded replay";
    EXPECT_LT(tv, policy_case.max_tv);
    // And the distributions genuinely overlap — a degenerate all-miss
    // sharded run would also have small TV against an all-miss reference,
    // so anchor the absolute level too.
    EXPECT_GT(reference.stats.exposed_hits, 0u);
    EXPECT_GT(merged_stats.exposed_hits, 0u);
  }
}

}  // namespace
}  // namespace ndnp::runner
