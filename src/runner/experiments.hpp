// Runner-driven definitions of the Section VII sweep experiments.
//
// The parameter grids behind bench_fig5a_hit_rates, bench_fig4a_utility and
// bench_theory_validation live here as library functions so that (a) the
// bench binaries and the golden/determinism tests share one implementation,
// and (b) each grid cell runs as an independent `runner` run — parallel
// under --jobs, with results merged in run-index order and therefore
// byte-identical to the single-threaded output (tolerance 0; see
// tests/golden/).
//
// Seeding note: these are parameter grids, not seed sweeps, and they
// reproduce the paper figures, so every cell keeps the exact seed the
// original serial bench used (e.g. replay seed 99 for every Figure 5(a)
// cell). Seed sweeps key per-run streams via runner::run_seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/theory.hpp"
#include "runner/runner.hpp"
#include "trace/replayer.hpp"
#include "trace/trace.hpp"

namespace ndnp::runner {

// ---------------------------------------------------------------------------
// Figure 5(a): hit rate by scheme and cache size (trace replay grid).

/// Anonymity parameter k the Random-Cache schemes of both Figure 5 panels
/// are parameterized for.
inline constexpr std::int64_t kFig5AnonymityK = 5;

struct Fig5aConfig {
  std::size_t trace_requests = 200'000;
  std::size_t trace_objects = 200'000;
  /// Replay seed used by *every* grid cell (the paper reproduction fixes it).
  std::uint64_t replay_seed = 99;
  double epsilon = 0.005;
  double delta = 0.05;
  double private_fraction = 0.2;
  /// 0 = unlimited (the paper's "Inf" column).
  std::vector<std::size_t> cache_sizes = {2'000, 4'000, 8'000, 16'000, 32'000, 0};
  /// Degraded-network ablation: Gilbert–Elliott burst loss on the upstream
  /// fetch path of every replay cell (see trace::ReplayConfig). Hit rates
  /// are unaffected by construction; response delays inflate.
  util::GilbertElliottConfig upstream_loss{};
  util::SimDuration upstream_retry_penalty = util::millis(80);
  std::size_t jobs = 1;
  /// Optional per-cell flight-recorder capture (not owned).
  SweepTraceCapture* capture = nullptr;
  /// Optional per-cell telemetry capture (not owned): every grid cell
  /// replays with its own TelemetryHub and the detector/occupancy time
  /// series are exported after the sweep (--telemetry-out).
  telemetry::SweepTelemetryCapture* telemetry = nullptr;
};

struct Fig5aResult {
  std::vector<std::string> scheme_names;
  std::vector<std::size_t> cache_sizes;
  /// cells[scheme][size]: full per-run snapshot.
  std::vector<std::vector<util::MetricsSnapshot>> cells;
  std::size_t trace_size = 0;
  std::size_t trace_distinct = 0;
  std::int64_t uniform_domain = 0;
  core::ExpoParams expo{};
  double wall_seconds = 0.0;

  [[nodiscard]] double hit_rate_pct(std::size_t scheme, std::size_t size) const;

  /// The bench's table text (header row + one row per scheme), identical to
  /// the pre-runner serial output. This is what the golden vectors lock in.
  [[nodiscard]] std::string format_table() const;

  /// Mean response delay (ms) per cell — the metric the degraded-network
  /// ablation moves (hit rates stay put by construction).
  [[nodiscard]] std::string format_delay_table() const;
};

/// Throws std::runtime_error if the exponential parameterization is
/// unattainable for (k, epsilon, delta).
[[nodiscard]] Fig5aResult run_fig5a(const Fig5aConfig& config);

// ---------------------------------------------------------------------------
// Figure 5(b): Exponential-Random-Cache hit rate by private share and
// cache size (trace replay grid).

struct Fig5bConfig {
  std::size_t trace_requests = 200'000;
  std::size_t trace_objects = 200'000;
  /// Replay seed used by every grid cell (matches the original serial bench).
  std::uint64_t replay_seed = 99;
  double epsilon = 0.005;
  double delta = 0.05;
  /// Fraction of content marked private, one table row each.
  std::vector<double> private_fractions = {0.05, 0.10, 0.20, 0.40};
  /// 0 = unlimited (the paper's "Inf" column).
  std::vector<std::size_t> cache_sizes = {2'000, 4'000, 8'000, 16'000, 32'000, 0};
  std::size_t jobs = 1;
  /// Optional per-cell flight-recorder capture (not owned).
  SweepTraceCapture* capture = nullptr;
  /// Optional per-cell telemetry capture (not owned); see Fig5aConfig.
  telemetry::SweepTelemetryCapture* telemetry = nullptr;
};

struct Fig5bResult {
  std::vector<double> private_fractions;
  std::vector<std::size_t> cache_sizes;
  /// cells[fraction][size]: full per-run snapshot.
  std::vector<std::vector<util::MetricsSnapshot>> cells;
  std::size_t trace_size = 0;
  core::ExpoParams expo{};
  double wall_seconds = 0.0;

  [[nodiscard]] double hit_rate_pct(std::size_t fraction, std::size_t size) const;

  /// The bench's table text (header row + one row per private share),
  /// identical to the pre-runner serial output; golden-vector locked.
  [[nodiscard]] std::string format_table() const;
};

/// Throws std::runtime_error if the exponential parameterization is
/// unattainable for (k, epsilon, delta).
[[nodiscard]] Fig5bResult run_fig5b(const Fig5bConfig& config);

// ---------------------------------------------------------------------------
// Figure 4(a): utility vs number of requests (closed-form grid).

struct Fig4aConfig {
  double delta = 0.05;
  std::vector<double> epsilons = {0.03, 0.04, 0.05};
  std::size_t jobs = 1;
  /// Optional per-cell flight-recorder capture (not owned).
  SweepTraceCapture* capture = nullptr;
};

struct Fig4aRow {
  std::int64_t c = 0;
  double uniform = 0.0;
  std::vector<double> expo;  // one value per configured epsilon
};

struct Fig4aBlock {
  std::int64_t k = 0;
  std::int64_t uniform_domain = 0;
  std::vector<double> epsilons;               // as configured
  std::vector<core::ExpoParams> expo_params;  // one per configured epsilon
  std::vector<Fig4aRow> rows;
};

struct Fig4aResult {
  std::vector<Fig4aBlock> blocks;  // one per k
  double wall_seconds = 0.0;

  /// The bench's full table text (parameter lines + per-c rows per k).
  [[nodiscard]] std::string format_table() const;
};

[[nodiscard]] Fig4aResult run_fig4a(const Fig4aConfig& config);

// ---------------------------------------------------------------------------
// Theorems VI.1-VI.4 Monte-Carlo validation.

struct TheoryValidationConfig {
  std::size_t trials = 200'000;
  /// Offset added to every utility row's RNG seed (row r draws from
  /// seed_base + (expo ? 2000 : 1000) + r). 0 reproduces the original
  /// serial bench; golden vectors pin several bases.
  std::uint64_t seed_base = 0;
  std::size_t jobs = 1;
  /// Optional per-run flight-recorder capture (not owned).
  SweepTraceCapture* capture = nullptr;
};

struct TheoryUtilityRow {
  std::string scheme;
  std::int64_t c = 0;
  double closed_form = 0.0;
  double simulated = 0.0;
};

struct TheoryPrivacyRow {
  std::string scheme;
  std::int64_t x = 0;
  double epsilon = 0.0;
  double measured_delta = 0.0;
  double bound_delta = 0.0;
};

struct TheoryValidationResult {
  std::vector<TheoryUtilityRow> utility;
  std::vector<TheoryPrivacyRow> privacy;
  double max_utility_error = 0.0;
  double wall_seconds = 0.0;

  [[nodiscard]] std::string format_utility_table() const;
  [[nodiscard]] std::string format_privacy_table() const;
};

[[nodiscard]] TheoryValidationResult run_theory_validation(const TheoryValidationConfig& config);

}  // namespace ndnp::runner
