// Deterministic parallel sweep runner: seed derivation, jobs-independence
// of merged results, golden vectors for the ported Figure 5(a) bench, and
// the determinism guard (ndnp_lint rules over the simulation tree).
#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint/engine.hpp"
#include "runner/experiments.hpp"
#include "util/rng.hpp"

namespace {

using namespace ndnp;

#ifndef NDNP_SOURCE_ROOT
#error "tests must be compiled with -DNDNP_SOURCE_ROOT=\"<repo root>\""
#endif

TEST(Runner, RunSeedMatchesSequentialSplitMix) {
  // run_seed is documented as the (i+1)-th output of SplitMix64(master),
  // computed by random access — pin that equivalence.
  for (const std::uint64_t master : {0ULL, 1ULL, 2013ULL, 0xdeadbeefULL}) {
    util::SplitMix64 sm(master);
    for (std::size_t i = 0; i < 100; ++i)
      EXPECT_EQ(runner::run_seed(master, i), sm.next()) << "master=" << master << " i=" << i;
  }
}

TEST(Runner, RunSeedStreamsNeverCollideAcross10kDraws) {
  // 16 per-run streams keyed by (master_seed, i): no value may repeat
  // within or across streams over 10k draws each.
  constexpr std::uint64_t kMaster = 2013;
  constexpr std::size_t kRuns = 16;
  constexpr std::size_t kDraws = 10'000;
  std::vector<std::uint64_t> draws;
  draws.reserve(kRuns * kDraws);
  for (std::size_t i = 0; i < kRuns; ++i) {
    util::Rng rng(runner::run_seed(kMaster, i));
    for (std::size_t d = 0; d < kDraws; ++d) draws.push_back(rng.next_u64());
  }
  std::sort(draws.begin(), draws.end());
  EXPECT_EQ(std::adjacent_find(draws.begin(), draws.end()), draws.end())
      << "per-run RNG streams collided";
  // The seeds themselves must be pairwise distinct too.
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 1'000; ++i) seeds.insert(runner::run_seed(kMaster, i));
  EXPECT_EQ(seeds.size(), 1'000u);
}

/// Synthetic metrics run: counters, gauges and a histogram derived purely
/// from the per-run seed — any cross-thread leakage or ordering bug
/// changes the merged output.
util::MetricsSnapshot synthetic_run(const runner::RunContext& ctx) {
  util::MetricsSnapshot snap;
  util::Rng rng(ctx.seed);
  util::Histogram& hist = snap.histograms.try_emplace("values", 0.0, 1.0, 16).first->second;
  const std::size_t n = 100 + rng.uniform_u64(100);
  for (std::size_t i = 0; i < n; ++i) {
    ++snap.counters["events"];
    hist.add(rng.uniform01());
  }
  snap.counters["run_index"] = ctx.run_index;
  snap.gauges["mean_draw"] = rng.uniform01();
  return snap;
}

TEST(Runner, SixteenRunSweepIsByteIdenticalForJobs148) {
  runner::SweepOptions options;
  options.master_seed = 99;
  options.jobs = 1;
  const runner::SweepResult jobs1 = runner::run_metrics_sweep(16, options, synthetic_run);
  options.jobs = 4;
  const runner::SweepResult jobs4 = runner::run_metrics_sweep(16, options, synthetic_run);
  options.jobs = 8;
  const runner::SweepResult jobs8 = runner::run_metrics_sweep(16, options, synthetic_run);

  ASSERT_EQ(jobs1.runs.size(), 16u);
  const std::string json1 = jobs1.merged_json();
  EXPECT_EQ(json1, jobs4.merged_json());
  EXPECT_EQ(json1, jobs8.merged_json());
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(jobs1.runs[i] == jobs4.runs[i]) << "run " << i;
    EXPECT_EQ(jobs1.runs[i].counters.at("run_index"), i) << "merge order broken";
  }
}

TEST(Runner, SweepPreservesRunIndexOrder) {
  runner::SweepOptions options;
  options.jobs = 8;
  const std::vector<std::size_t> results = runner::run_sweep<std::size_t>(
      64, options, [](const runner::RunContext& ctx) { return ctx.run_index * 10; });
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i * 10);
}

TEST(Runner, SweepRethrowsWorkerExceptions) {
  runner::SweepOptions options;
  options.jobs = 4;
  EXPECT_THROW(runner::run_sweep<int>(16, options,
                                      [](const runner::RunContext& ctx) {
                                        if (ctx.run_index == 7)
                                          throw std::runtime_error("boom");
                                        return 0;
                                      }),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Jobs-invariance: parallel sweeps must merge to byte-identical results
// regardless of worker count. (The pinned golden *vectors* for these
// experiments live in test_golden.cpp / the ndnp_golden_tests binary;
// these tests stay here so the ThreadSanitizer CI job races them.)

runner::Fig5aConfig golden_config(std::uint64_t replay_seed) {
  runner::Fig5aConfig config;
  config.trace_requests = 10'000;
  config.trace_objects = 10'000;
  config.replay_seed = replay_seed;
  return config;
}

TEST(RunnerJobsInvariance, Fig5aByteIdenticalAcrossJobs) {
  runner::Fig5aConfig config = golden_config(99);
  const std::string jobs1 = runner::run_fig5a(config).format_table();
  config.jobs = 4;
  const std::string jobs4 = runner::run_fig5a(config).format_table();
  config.jobs = 8;
  runner::Fig5aResult result8 = runner::run_fig5a(config);
  EXPECT_EQ(jobs1, jobs4);
  EXPECT_EQ(jobs1, result8.format_table());
  // The full merged metrics JSON (not just the table) is jobs-invariant.
  config.jobs = 1;
  EXPECT_EQ(runner::run_fig5a(config).merged_json(), result8.merged_json());
}

TEST(RunnerJobsInvariance, Fig4aAndTheoryByteIdenticalAcrossJobs) {
  runner::Fig4aConfig fig4a;
  const std::string fig4a_serial = runner::run_fig4a(fig4a).format_table();
  fig4a.jobs = 8;
  EXPECT_EQ(fig4a_serial, runner::run_fig4a(fig4a).format_table());

  runner::TheoryValidationConfig theory;
  theory.trials = 20'000;
  const runner::TheoryValidationResult serial = runner::run_theory_validation(theory);
  theory.jobs = 5;
  const runner::TheoryValidationResult parallel = runner::run_theory_validation(theory);
  EXPECT_EQ(serial.format_utility_table(), parallel.format_utility_table());
  EXPECT_EQ(serial.format_privacy_table(), parallel.format_privacy_table());
  EXPECT_EQ(serial.max_utility_error, parallel.max_utility_error);
}

// ---------------------------------------------------------------------------
// Determinism guard: simulation results must never depend on wall clock,
// libc rand, or unordered-container iteration order. The old grep scan
// over src/sim, src/trace and src/telemetry is now the ndnp_lint rule
// pack (src/lint, docs/STATIC_ANALYSIS.md), which lexes real code — no
// false hits on comments or strings — and covers a wider tree: the
// determinism rules bind to src/runner, src/attack, src/cache and
// src/core as well. Suppressions require a written justification at the
// site, so a silent reintroduction still fails here.

TEST(DeterminismGuard, SimulationTreeIsCleanUnderDeterminismLintRules) {
  const lint::LintConfig config = lint::LintConfig::repo_default();
  const lint::LintReport report = lint::lint_paths(NDNP_SOURCE_ROOT, {"src"}, config);
  std::vector<lint::Finding> determinism;
  for (const lint::Finding& finding : report.findings)
    if (finding.rule.starts_with("determinism-")) determinism.push_back(finding);
  EXPECT_TRUE(determinism.empty()) << [&] {
    lint::LintReport only;
    only.findings = determinism;
    only.files_scanned = report.files_scanned;
    return only.to_text();
  }();
  ASSERT_GE(report.files_scanned, 10u) << "guard scanned suspiciously few files";
}

}  // namespace
