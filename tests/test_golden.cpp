// Golden-vector tests (label: golden).
//
// Each test formats an experiment's output table and compares it to a
// checked-in file under tests/golden/ with tolerance 0 — not epsilon.
// Byte identity is the contract that makes the hot-path rewrites in this
// repository safe: any change to RNG consumption, float summation order,
// cache behavior or table formatting shows up as a diff here.
//
// Regeneration: delete the file(s) and rerun with NDNP_REGEN_GOLDEN=1 in
// the environment; the test writes the current output and passes. Commit
// regenerated vectors only when the behavior change is intended.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/conversation.hpp"
#include "attack/fragment_attack.hpp"
#include "attack/pit_probe.hpp"
#include "attack/timing_attack.hpp"
#include "core/policies.hpp"
#include "runner/experiments.hpp"
#include "runner/sharded_replay.hpp"
#include "sim/topology.hpp"
#include "trace/stream.hpp"
#include "util/fault_model.hpp"

namespace {

using namespace ndnp;

#ifndef NDNP_SOURCE_ROOT
#error "tests must be compiled with -DNDNP_SOURCE_ROOT=\"<repo root>\""
#endif

std::filesystem::path golden_path(const std::string& stem) {
  return std::filesystem::path(NDNP_SOURCE_ROOT) / "tests" / "golden" / (stem + ".txt");
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Compare `actual` against the named golden file, creating it when absent
/// and NDNP_REGEN_GOLDEN is set.
void expect_matches_golden(const std::string& stem, const std::string& actual) {
  const std::filesystem::path path = golden_path(stem);
  std::string expected = read_file(path);
  if (expected.empty() && std::getenv("NDNP_REGEN_GOLDEN")) {
    std::filesystem::create_directories(path.parent_path());
    std::ofstream(path) << actual;
    expected = actual;
  }
  ASSERT_FALSE(expected.empty()) << "missing golden vector " << path
                                 << " (regenerate with NDNP_REGEN_GOLDEN=1)";
  EXPECT_EQ(actual, expected) << stem << " diverged from the locked-in output "
                              << "(tolerance is 0, not epsilon)";
}

// --- Figure 5(a): cache-privacy utility sweep over a replayed trace --------

runner::Fig5aConfig fig5a_config(std::uint64_t replay_seed) {
  runner::Fig5aConfig config;
  config.trace_requests = 10'000;
  config.trace_objects = 10'000;
  config.replay_seed = replay_seed;
  return config;
}

TEST(Golden, Fig5aMatchesSingleThreadedGoldenVectors) {
  for (const std::uint64_t seed : {99ULL, 7ULL, 2025ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const runner::Fig5aResult result = runner::run_fig5a(fig5a_config(seed));
    expect_matches_golden("fig5a_seed" + std::to_string(seed), result.format_table());
  }
}

// Degraded network: the same grid with 5 % Gilbert–Elliott burst loss
// (mean burst 4 packets) on the upstream fetch path. The loss chain draws
// from its own RNG stream, so the hit-rate table must stay byte-identical
// to the clean fig5a_seed99 vector; the per-cell mean response delays are
// what the ablation moves, and they are locked in tolerance-0 too.
TEST(Golden, Fig5aDegradedNetworkMatchesGoldenVector) {
  runner::Fig5aConfig config = fig5a_config(99);
  config.upstream_loss = util::GilbertElliottConfig::from_loss_and_burst(0.05, 4.0);
  const runner::Fig5aResult result = runner::run_fig5a(config);
  expect_matches_golden("fig5a_seed99", result.format_table());
  expect_matches_golden("fig5a_degraded_loss5_seed99",
                        result.format_table() + "\n" + result.format_delay_table());
}

// --- Figure 5(b): hit rate by private share (statistical-regression layer) -

TEST(Golden, Fig5bMatchesGoldenVectorsAcrossSeeds) {
  for (const std::uint64_t seed : {99ULL, 7ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    runner::Fig5bConfig config;
    config.trace_requests = 10'000;
    config.trace_objects = 10'000;
    config.replay_seed = seed;
    const runner::Fig5bResult result = runner::run_fig5b(config);
    expect_matches_golden("fig5b_seed" + std::to_string(seed), result.format_table());
  }
}

// --- Figure 3(a): LAN timing-attack report ---------------------------------
// The timing experiments feed the paper's headline privacy numbers; locking
// the full text report (PDF table + summary statistics + both classifier
// accuracies) at a small locked configuration catches any drift in link
// jitter RNG, histogram binning, or the Bayes/threshold computations.

TEST(Golden, Fig3aTimingReportMatchesGoldenVector) {
  attack::TimingAttackConfig config;
  config.trials = 5;
  config.contents_per_trial = 10;
  config.scenario_params = &sim::lan_scenario_params;
  config.seed = 1;
  const attack::TimingAttackResult result = attack::run_timing_attack(config);
  expect_matches_golden("fig3a_trials5_seed1", attack::format_timing_report(result));
}

// --- The other attacks: exact results at small trial counts ---------------
// Every attack drives the same probe primitive (sim::fetch_blocking) and the
// shared calibration and tally steps. These pins lock each attack's result
// bit for bit (EXPECT_EQ on doubles, not EXPECT_DOUBLE_EQ), so a change to
// how a probe is fetched, timed or scored shows up here.

TEST(Golden, AttackResultsArePinned) {
  attack::TimingAttackConfig decision;
  decision.trials = 12;
  decision.scenario_params = &sim::producer_adjacent_scenario_params;
  decision.seed = 11;
  EXPECT_EQ(attack::run_decision_protocol(decision), 0.58333333333333337);
  decision.scenario_params = &sim::lan_scenario_params;
  EXPECT_EQ(attack::run_decision_protocol(decision), 1.0);

  attack::FragmentAttackConfig fragment;
  fragment.trials = 12;
  fragment.n_fragments = 4;
  fragment.calibration_probes = 5;
  fragment.scenario_params = &sim::producer_adjacent_scenario_params;
  fragment.seed = 505;
  const attack::FragmentAttackResult frag = attack::run_fragment_attack(fragment);
  EXPECT_EQ(frag.detection_rate, 0.5);
  EXPECT_EQ(frag.false_alarm_rate, 0.25);
  EXPECT_EQ(frag.accuracy, 0.58333333333333337);
  EXPECT_EQ(frag.per_object_accuracy, 0.64583333333333337);
  EXPECT_EQ(frag.analytic_success, 0.98426630467544363);

  attack::PitProbeConfig pit;
  pit.trials = 12;
  pit.seed = 7777;
  const attack::PitProbeResult open = attack::run_pit_collapse_attack(pit);
  EXPECT_EQ(open.detection_rate, 1.0);
  EXPECT_EQ(open.false_alarm_rate, 0.0);
  EXPECT_EQ(open.accuracy, 1.0);
  pit.pad_collapsed_private = true;
  const attack::PitProbeResult padded = attack::run_pit_collapse_attack(pit);
  EXPECT_EQ(padded.detection_rate, 0.0);
  EXPECT_EQ(padded.false_alarm_rate, 0.0);
  EXPECT_EQ(padded.accuracy, 0.5);

  attack::ConversationAttackConfig conversation;
  conversation.trials = 10;
  conversation.frames = 5;
  conversation.seed = 424242;
  const attack::ConversationAttackResult predictable =
      attack::run_conversation_attack(conversation);
  EXPECT_EQ(predictable.detection_rate, 1.0);
  EXPECT_EQ(predictable.false_alarm_rate, 0.0);
  EXPECT_EQ(predictable.accuracy, 1.0);
  conversation.unpredictable_names = true;
  const attack::ConversationAttackResult unpredictable =
      attack::run_conversation_attack(conversation);
  EXPECT_EQ(unpredictable.detection_rate, 0.0);
  EXPECT_EQ(unpredictable.false_alarm_rate, 0.0);
  EXPECT_EQ(unpredictable.accuracy, 0.69999999999999996);
}

// --- Sharded replay: merged snapshot locked across PRs ---------------------
// The sharded replayer promises byte-identical merged metrics for any jobs
// count *and* across releases at a fixed seed. The jobs sweep lives in
// tests/test_sharded_replay.cpp; this locks the bytes themselves.

TEST(Golden, ShardedReplayMergedSnapshotMatchesGoldenVector) {
  trace::TraceGenConfig gen;
  gen.num_users = 24;
  gen.num_objects = 2'000;
  gen.num_requests = 8'000;
  gen.seed = 17;
  const trace::Trace tr = trace::generate_trace(gen);

  runner::ShardedReplayConfig config;
  config.shards = 4;
  config.master_seed = 99;
  config.replay.cache_capacity = 200;
  config.replay.policy_factory = [] {
    return core::RandomCachePolicy::exponential(0.999, 201, 5);
  };
  const runner::ShardedReplayResult result = runner::replay_sharded(tr, config);
  expect_matches_golden("sharded_replay_seed99", result.merged_json() + "\n");
}

// --- Figure 4(a): utility loss of uniform vs exponential k -----------------
// Closed-form computation (no RNG), so the three vectors vary the privacy
// parameter delta instead of a seed: any drift in the analytic formulas,
// their summation order, or printf formatting is caught.

TEST(Golden, Fig4aMatchesGoldenVectorsAcrossDeltas) {
  struct Variant {
    double delta;
    std::vector<double> epsilons;  // must satisfy eps <= -ln(1 - delta)
  };
  for (const Variant& variant : {Variant{0.05, {0.03, 0.04, 0.05}},
                                 Variant{0.10, {0.05, 0.08, 0.10}},
                                 Variant{0.02, {0.01, 0.015, 0.02}}}) {
    SCOPED_TRACE("delta=" + std::to_string(variant.delta));
    runner::Fig4aConfig config;
    config.delta = variant.delta;
    config.epsilons = variant.epsilons;
    const runner::Fig4aResult result = runner::run_fig4a(config);
    expect_matches_golden(
        "fig4a_delta" + std::to_string(static_cast<int>(variant.delta * 100)),
        result.format_table());
  }
}

// --- Parallelism must not perturb golden outputs ---------------------------
// The runner promises byte-identical output for any --jobs value: work is
// partitioned by run index, every run owns a seeded RNG derived from that
// index, and merges happen in index order. With the event scheduler
// underneath every replayed cell, this sweep re-locks that promise — each
// experiment family reproduces the exact same golden bytes at jobs 1, 4
// and 8.

TEST(Golden, Fig5aByteIdenticalAcrossJobsSweep) {
  for (const std::size_t jobs : {1u, 4u, 8u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    runner::Fig5aConfig config = fig5a_config(99);
    config.jobs = jobs;
    const runner::Fig5aResult result = runner::run_fig5a(config);
    expect_matches_golden("fig5a_seed99", result.format_table());
  }
}

TEST(Golden, Fig4aByteIdenticalAcrossJobsSweep) {
  for (const std::size_t jobs : {1u, 4u, 8u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    runner::Fig4aConfig config;
    config.jobs = jobs;
    const runner::Fig4aResult result = runner::run_fig4a(config);
    expect_matches_golden("fig4a_delta5", result.format_table());
  }
}

TEST(Golden, TheoryValidationByteIdenticalAcrossJobsSweep) {
  for (const std::size_t jobs : {1u, 4u, 8u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    runner::TheoryValidationConfig config;
    config.trials = 20'000;
    config.jobs = jobs;
    const runner::TheoryValidationResult result = runner::run_theory_validation(config);
    expect_matches_golden("theory_seed0",
                          result.format_utility_table() + "\n" + result.format_privacy_table());
  }
}

TEST(Golden, ShardedReplayByteIdenticalAcrossJobsSweep) {
  trace::TraceGenConfig gen;
  gen.num_users = 24;
  gen.num_objects = 2'000;
  gen.num_requests = 8'000;
  gen.seed = 17;
  const trace::Trace tr = trace::generate_trace(gen);
  for (const std::size_t jobs : {1u, 4u, 8u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    runner::ShardedReplayConfig config;
    config.shards = 4;
    config.jobs = jobs;
    config.master_seed = 99;
    config.replay.cache_capacity = 200;
    config.replay.policy_factory = [] {
      return core::RandomCachePolicy::exponential(0.999, 201, 5);
    };
    const runner::ShardedReplayResult result = runner::replay_sharded(tr, config);
    expect_matches_golden("sharded_replay_seed99", result.merged_json() + "\n");
  }
}

// --- Flight recorder must not perturb golden outputs -----------------------
// The tracer only observes: it never draws RNG, never schedules events.
// Re-running the experiments with per-run tracers bound (in-memory capture)
// must reproduce the exact same golden bytes.

TEST(Golden, Fig5aUnchangedWithTracingEnabled) {
  runner::SweepTraceCapture capture;
  runner::Fig5aConfig config = fig5a_config(99);
  config.capture = &capture;
  const runner::Fig5aResult result = runner::run_fig5a(config);
  expect_matches_golden("fig5a_seed99", result.format_table());
  ASSERT_FALSE(capture.runs.empty());
  // The capture is real: every replay cell recorded engine activity.
  for (const auto& tracer : capture.runs) EXPECT_GT(tracer->total_recorded(), 0u);
}

TEST(Golden, Fig4aUnchangedWithTracingEnabled) {
  runner::SweepTraceCapture capture;
  runner::Fig4aConfig config;
  config.capture = &capture;
  const runner::Fig4aResult result = runner::run_fig4a(config);
  expect_matches_golden("fig4a_delta5", result.format_table());
}

TEST(Golden, TheoryValidationUnchangedWithTracingEnabled) {
  runner::SweepTraceCapture capture;
  runner::TheoryValidationConfig config;
  config.trials = 20'000;
  config.capture = &capture;
  const runner::TheoryValidationResult result = runner::run_theory_validation(config);
  expect_matches_golden("theory_seed0",
                        result.format_utility_table() + "\n" + result.format_privacy_table());
}

// --- Trace source: generated record streams --------------------------------

/// FNV-1a over (timestamp bits, user id, URI) of the first `limit` records
/// of `source`: a fingerprint of the exact stream, chunking aside.
std::uint64_t record_stream_digest(trace::TraceSource& source, std::size_t limit) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (value >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  std::vector<trace::TraceRecord> chunk;
  std::size_t seen = 0;
  while (seen < limit && source.next_chunk(chunk, 64 * 1024)) {
    for (const trace::TraceRecord& record : chunk) {
      if (seen == limit) break;
      ++seen;
      mix(std::bit_cast<std::uint64_t>(record.timestamp_s), 8);
      mix(record.user_id, 4);
      for (const char c : record.name.to_uri()) mix(static_cast<unsigned char>(c), 1);
      mix(0, 1);  // URI terminator
    }
  }
  EXPECT_EQ(seen, limit);
  return h;
}

// The generated record streams are pinned bit for bit, so a faster sampler
// or name builder cannot change a single record. One trace has the bench/e2e shape (100k users, 1M objects, 2,000
// domains); the other is generate_trace's default configuration.
TEST(TraceStreamGolden, GeneratedRecordStreamsArePinned) {
  constexpr std::size_t kRecords = 200'000;
  trace::TraceGenConfig bench_shape;
  bench_shape.num_users = 100'000;
  bench_shape.num_objects = 1'000'000;
  bench_shape.num_domains = 2'000;
  bench_shape.num_requests = 1'000'000;
  bench_shape.zipf_exponent = 0.8;
  bench_shape.seed = 2013;
  const trace::SyntheticWorkload workload(bench_shape);
  const auto streamed = workload.open();
  EXPECT_EQ(record_stream_digest(*streamed, kRecords), 0x83c4ae468f69be25ULL);

  const trace::Trace generated = trace::generate_trace(trace::TraceGenConfig{});
  trace::VectorTraceSource in_memory(generated);
  EXPECT_EQ(record_stream_digest(in_memory, kRecords), 0x9e33c400342d656cULL);
}

// --- Sharded replay of a generated source -----------------------------------
// The bench/e2e replay_sharded shape at 50k requests, replayed straight from
// a SyntheticWorkload: the path on which each shard's source skips the
// other shards' users. The merged JSON is pinned by its FNV-1a digest.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Golden, ShardedSyntheticReplayDigestIsPinned) {
  trace::TraceGenConfig gen;
  gen.num_users = 100'000;
  gen.num_objects = 1'000'000;
  gen.num_domains = 2'000;
  gen.num_requests = 50'000;
  gen.zipf_exponent = 0.8;
  gen.seed = 2013;
  const trace::SyntheticWorkload workload(gen);
  for (const std::size_t jobs : {1u, 2u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    runner::ShardedReplayConfig config;
    config.shards = 8;
    config.jobs = jobs;
    config.master_seed = 99;
    config.replay.cache_capacity = 8'000;
    config.replay.private_fraction = 0.2;
    config.replay.policy_factory = [] {
      return core::RandomCachePolicy::exponential(0.999, 201, 5);
    };
    const runner::ShardedReplayResult result =
        runner::replay_sharded([&workload] { return workload.open(); }, config);
    EXPECT_EQ(result.records, gen.num_requests);
    EXPECT_EQ(fnv1a(result.merged_json()), 0x2be47e8252d585b5ULL);
  }
}

// --- Theory validation: closed forms vs Monte-Carlo simulation ------------
// Three seed bases; the privacy half is exact (seed-independent) and must
// be byte-identical across all three files.

TEST(Golden, TheoryValidationMatchesGoldenVectorsAcrossSeeds) {
  for (const std::uint64_t seed_base : {0ULL, 1ULL, 2ULL}) {
    SCOPED_TRACE("seed_base=" + std::to_string(seed_base));
    runner::TheoryValidationConfig config;
    config.trials = 20'000;
    config.seed_base = seed_base;
    const runner::TheoryValidationResult result = runner::run_theory_validation(config);
    expect_matches_golden("theory_seed" + std::to_string(seed_base),
                          result.format_utility_table() + "\n" + result.format_privacy_table());
  }
}

}  // namespace
