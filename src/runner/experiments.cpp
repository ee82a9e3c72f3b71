#include "runner/experiments.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>

#include "core/indistinguishability.hpp"
#include "core/k_distribution.hpp"
#include "core/policies.hpp"
#include "util/rng.hpp"

namespace ndnp::runner {

namespace {

std::string sprintf_line(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

// NDNP-LINT-ALLOW(determinism-wallclock): helper that timestamps bench tables; never feeds merged metrics
double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  // NDNP-LINT-ALLOW(determinism-wallclock): helper that timestamps bench tables; never feeds merged metrics
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Figure 5(a) and 5(b): one trace replayed over a (row, cache size) grid

namespace {

core::ExpoParams solve_fig5_expo(std::int64_t k, double epsilon, double delta,
                                 const char* caller) {
  const auto expo = core::solve_expo_params(k, epsilon, delta);
  if (!expo)
    throw std::runtime_error(std::string(caller) +
                             ": unsolvable exponential parameterization");
  return *expo;
}

/// Seed of the trace both Figure 5 panels replay.
constexpr std::uint64_t kFig5TraceSeed = 2013;

struct Fig5Grid {
  /// cells[row][size]: the replay's metrics snapshot.
  std::vector<std::vector<util::MetricsSnapshot>> cells;
  std::size_t trace_size = 0;
  std::size_t trace_distinct = 0;
};

/// Generate the configured trace and replay it once per (row, cache size)
/// cell, row-major, as one runner sweep. `rows[r]` is row r's replay
/// template; the driver sets its cache capacity, the fixed replay seed and
/// the cell's telemetry hub. `Config` is Fig5aConfig or Fig5bConfig.
template <class Config>
Fig5Grid run_fig5_grid(const Config& config, const std::vector<trace::ReplayConfig>& rows) {
  trace::TraceGenConfig gen;
  gen.num_requests = config.trace_requests;
  gen.num_objects = config.trace_objects;
  gen.seed = kFig5TraceSeed;
  const trace::Trace tr = trace::generate_trace(gen);

  const std::size_t num_sizes = config.cache_sizes.size();
  SweepOptions options;
  options.jobs = config.jobs;
  options.capture = config.capture;
  options.telemetry = config.telemetry;
  options.master_seed = config.replay_seed;
  const std::vector<util::MetricsSnapshot> cells = run_sweep<util::MetricsSnapshot>(
      rows.size() * num_sizes, options, [&](const RunContext& ctx) {
        trace::ReplayConfig replay_config = rows[ctx.run_index / num_sizes];
        replay_config.cache_capacity = config.cache_sizes[ctx.run_index % num_sizes];
        replay_config.seed = config.replay_seed;
        if (config.telemetry != nullptr)
          replay_config.telemetry = config.telemetry->run_hub(ctx.run_index);
        return trace::replay(tr, replay_config).metrics;
      });

  Fig5Grid grid;
  grid.trace_size = tr.size();
  grid.trace_distinct = tr.distinct_names();
  for (std::size_t r = 0; r < rows.size(); ++r)
    grid.cells.emplace_back(cells.begin() + static_cast<std::ptrdiff_t>(r * num_sizes),
                            cells.begin() + static_cast<std::ptrdiff_t>((r + 1) * num_sizes));
  return grid;
}

/// A table's header line: `label`, then one column per cache size.
std::string cache_size_header(std::string label, const std::vector<std::size_t>& cache_sizes) {
  for (const std::size_t size : cache_sizes)
    label += size == 0 ? sprintf_line("%10s", "Inf") : sprintf_line("%10zu", size);
  return label + '\n';
}

}  // namespace

Fig5aResult run_fig5a(const Fig5aConfig& config) {
  // NDNP-LINT-ALLOW(determinism-wallclock): wall_seconds reporting gauge, excluded from golden output
  const auto start = std::chrono::steady_clock::now();

  Fig5aResult result;
  result.cache_sizes = config.cache_sizes;
  result.uniform_domain = core::uniform_domain_for_delta(kFig5AnonymityK, config.delta);
  const core::ExpoParams expo = result.expo =
      solve_fig5_expo(kFig5AnonymityK, config.epsilon, config.delta, "run_fig5a");

  // Policy seeds match the original serial bench (5 for the Random-Cache
  // schemes) so the golden vectors carry over unchanged.
  const std::int64_t uniform_domain = result.uniform_domain;
  std::vector<trace::ReplayConfig> rows;
  const auto add_scheme =
      [&](const char* name,
          std::function<std::unique_ptr<core::CachePrivacyPolicy>()> factory) {
        result.scheme_names.emplace_back(name);
        trace::ReplayConfig& row = rows.emplace_back();
        row.private_fraction = config.private_fraction;
        row.policy_factory = std::move(factory);
        row.upstream_loss = config.upstream_loss;
        row.upstream_retry_penalty = config.upstream_retry_penalty;
      };
  add_scheme("No Privacy", [] { return std::make_unique<core::NoPrivacyPolicy>(); });
  add_scheme("Exponential-Random-Cache", [expo] {
    return core::RandomCachePolicy::exponential(expo.alpha, expo.domain, 5);
  });
  add_scheme("Uniform-Random-Cache",
             [uniform_domain] { return core::RandomCachePolicy::uniform(uniform_domain, 5); });
  add_scheme("Always Delay Private", [] {
    return std::make_unique<core::AlwaysDelayPolicy>(
        core::AlwaysDelayPolicy::content_specific());
  });

  Fig5Grid grid = run_fig5_grid(config, rows);
  result.cells = std::move(grid.cells);
  result.trace_size = grid.trace_size;
  result.trace_distinct = grid.trace_distinct;
  result.wall_seconds = elapsed_seconds(start);
  return result;
}

double Fig5aResult::hit_rate_pct(std::size_t scheme, std::size_t size) const {
  return cells[scheme][size].gauges.at("replay.hit_rate_pct");
}

std::string Fig5aResult::format_table() const {
  std::string out = cache_size_header(sprintf_line("%-26s", "cache size:"), cache_sizes);
  for (std::size_t s = 0; s < scheme_names.size(); ++s) {
    out += sprintf_line("%-26s", scheme_names[s].c_str());
    for (std::size_t z = 0; z < cache_sizes.size(); ++z)
      out += sprintf_line("%9.2f%%", hit_rate_pct(s, z));
    out += '\n';
  }
  return out;
}

std::string Fig5aResult::format_delay_table() const {
  std::string out =
      cache_size_header(sprintf_line("%-26s", "mean response (ms):"), cache_sizes);
  for (std::size_t s = 0; s < scheme_names.size(); ++s) {
    out += sprintf_line("%-26s", scheme_names[s].c_str());
    for (std::size_t z = 0; z < cache_sizes.size(); ++z)
      out += sprintf_line("%10.3f", cells[s][z].gauges.at("replay.mean_response_ms"));
    out += '\n';
  }
  return out;
}

Fig5bResult run_fig5b(const Fig5bConfig& config) {
  // NDNP-LINT-ALLOW(determinism-wallclock): wall_seconds reporting gauge, excluded from golden output
  const auto start = std::chrono::steady_clock::now();

  Fig5bResult result;
  result.private_fractions = config.private_fractions;
  result.cache_sizes = config.cache_sizes;
  const core::ExpoParams expo = result.expo =
      solve_fig5_expo(kFig5AnonymityK, config.epsilon, config.delta, "run_fig5b");

  std::vector<trace::ReplayConfig> rows(config.private_fractions.size());
  for (std::size_t f = 0; f < rows.size(); ++f) {
    rows[f].private_fraction = config.private_fractions[f];
    // Policy seed 5 matches the original serial bench.
    rows[f].policy_factory = [expo] {
      return core::RandomCachePolicy::exponential(expo.alpha, expo.domain, 5);
    };
  }

  Fig5Grid grid = run_fig5_grid(config, rows);
  result.cells = std::move(grid.cells);
  result.trace_size = grid.trace_size;
  result.wall_seconds = elapsed_seconds(start);
  return result;
}

double Fig5bResult::hit_rate_pct(std::size_t fraction, std::size_t size) const {
  return cells[fraction][size].gauges.at("replay.hit_rate_pct");
}

std::string Fig5bResult::format_table() const {
  std::string out = cache_size_header(sprintf_line("%-14s", "private share"), cache_sizes);
  for (std::size_t f = 0; f < private_fractions.size(); ++f) {
    out += sprintf_line("%12.0f%% ", private_fractions[f] * 100.0);
    for (std::size_t z = 0; z < cache_sizes.size(); ++z)
      out += sprintf_line("%9.2f%%", hit_rate_pct(f, z));
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Figure 4(a)

Fig4aResult run_fig4a(const Fig4aConfig& config) {
  // NDNP-LINT-ALLOW(determinism-wallclock): wall_seconds reporting gauge, excluded from golden output
  const auto start = std::chrono::steady_clock::now();

  // One table block per anonymity k; rows for c = 5, 10, ..., 100 requests.
  constexpr std::array<std::int64_t, 2> kKs = {1, 5};
  constexpr std::int64_t kCMin = 5;
  constexpr std::int64_t kCMax = 100;
  constexpr std::int64_t kCStep = 5;
  Fig4aResult result;
  for (const std::int64_t k : kKs) {
    Fig4aBlock block;
    block.k = k;
    block.uniform_domain = core::uniform_domain_for_delta(k, config.delta);
    for (const double eps : config.epsilons) {
      const auto solved = core::solve_expo_params(k, eps, config.delta);
      if (!solved)
        throw std::runtime_error("run_fig4a: unsolvable exponential parameterization");
      block.epsilons.push_back(eps);
      block.expo_params.push_back(*solved);
    }
    result.blocks.push_back(std::move(block));
  }

  std::vector<std::int64_t> c_values;
  for (std::int64_t c = kCMin; c <= kCMax; c += kCStep)
    c_values.push_back(c);

  SweepOptions options;
  options.jobs = config.jobs;
  options.capture = config.capture;
  const std::vector<Fig4aRow> rows = run_sweep<Fig4aRow>(
      result.blocks.size() * c_values.size(), options, [&](const RunContext& ctx) {
        const Fig4aBlock& block = result.blocks[ctx.run_index / c_values.size()];
        Fig4aRow row;
        row.c = c_values[ctx.run_index % c_values.size()];
        row.uniform = core::uniform_utility(row.c, block.uniform_domain);
        for (const core::ExpoParams& params : block.expo_params)
          row.expo.push_back(core::expo_utility(row.c, params.alpha, params.domain));
        return row;
      });

  for (std::size_t b = 0; b < result.blocks.size(); ++b)
    result.blocks[b].rows.assign(
        rows.begin() + static_cast<std::ptrdiff_t>(b * c_values.size()),
        rows.begin() + static_cast<std::ptrdiff_t>((b + 1) * c_values.size()));
  result.wall_seconds = elapsed_seconds(start);
  return result;
}

std::string Fig4aResult::format_table() const {
  std::string out;
  for (const Fig4aBlock& block : blocks) {
    out += sprintf_line("k = %lld   (Uniform: K = %lld", static_cast<long long>(block.k),
                        static_cast<long long>(block.uniform_domain));
    for (std::size_t e = 0; e < block.expo_params.size(); ++e)
      out += sprintf_line("; Expo eps=%.2f: alpha=%.5f K=%lld", block.epsilons[e],
                          block.expo_params[e].alpha,
                          static_cast<long long>(block.expo_params[e].domain));
    out += ")\n";
    out += sprintf_line("%6s  %10s", "c", "Uniform");
    for (const double eps : block.epsilons)
      out += sprintf_line("  %14s", sprintf_line("Expo e=%.2f", eps).c_str());
    out += '\n';
    for (const Fig4aRow& row : block.rows) {
      out += sprintf_line("%6lld  %10.4f", static_cast<long long>(row.c), row.uniform);
      for (const double u : row.expo) out += sprintf_line("  %14.4f", u);
      out += '\n';
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Theorems VI.1-VI.4

namespace {

/// Literal Algorithm 1: average simulated misses among c post-insertion
/// requests over `trials` fresh contents.
double simulate_mean_misses(const core::KDistribution& dist, std::int64_t c,
                            std::size_t trials, std::uint64_t seed) {
  util::Rng rng(seed);
  std::uint64_t total = 0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const std::int64_t k = dist.sample(rng);
    for (std::int64_t i = 1; i <= c; ++i)
      if (i <= k) ++total;
  }
  return static_cast<double>(total) / static_cast<double>(trials);
}

// Constants of the original bench rows (kept verbatim so outputs match).
constexpr std::int64_t kUtilityDomain = 50;
constexpr double kUtilityAlpha = 0.9;
constexpr std::int64_t kPrivacyDomain = 200;
constexpr double kPrivacyAlpha = 0.99;
/// Request counts c of the utility section and prior requests x of the
/// privacy section, one row pair (uniform, expo) each.
constexpr std::array<std::int64_t, 3> kUtilityCs = {5, 20, 80};
constexpr std::array<std::int64_t, 3> kPrivacyXs = {1, 3, 5};

}  // namespace

TheoryValidationResult run_theory_validation(const TheoryValidationConfig& config) {
  // NDNP-LINT-ALLOW(determinism-wallclock): wall_seconds reporting gauge, excluded from golden output
  const auto start = std::chrono::steady_clock::now();
  TheoryValidationResult result;

  SweepOptions options;
  options.jobs = config.jobs;
  options.capture = config.capture;

  // Utility rows, interleaved (uniform, expo) per c with the original
  // bench's per-row seeds: row r draws from seed (r odd ? 2000 : 1000) + r.
  result.utility = run_sweep<TheoryUtilityRow>(
      2 * kUtilityCs.size(), options, [&](const RunContext& ctx) {
        const std::size_t r = ctx.run_index;
        const std::int64_t c = kUtilityCs[r / 2];
        const bool expo = (r % 2) != 0;
        const std::uint64_t seed =
            config.seed_base + (expo ? 2000 : 1000) + static_cast<std::uint64_t>(r);
        TheoryUtilityRow row;
        row.c = c;
        if (expo) {
          row.scheme = sprintf_line("TruncGeom a=%.1f K=%lld", kUtilityAlpha,
                                    static_cast<long long>(kUtilityDomain));
          const core::TruncatedGeometricK dist(kUtilityAlpha, kUtilityDomain);
          row.closed_form = core::expo_expected_misses(c, kUtilityAlpha, kUtilityDomain);
          row.simulated = simulate_mean_misses(dist, c, config.trials, seed);
        } else {
          row.scheme = sprintf_line("Uniform K=%lld", static_cast<long long>(kUtilityDomain));
          const core::UniformK dist(kUtilityDomain);
          row.closed_form = core::uniform_expected_misses(c, kUtilityDomain);
          row.simulated = simulate_mean_misses(dist, c, config.trials, seed);
        }
        return row;
      });
  for (const TheoryUtilityRow& row : result.utility)
    result.max_utility_error =
        std::max(result.max_utility_error, std::abs(row.closed_form - row.simulated));

  // Privacy rows: exact output distributions, deterministic closed forms.
  const std::int64_t probes = kPrivacyDomain + 8;
  result.privacy = run_sweep<TheoryPrivacyRow>(
      2 * kPrivacyXs.size(), options, [&](const RunContext& ctx) {
        const std::size_t r = ctx.run_index;
        const std::int64_t x = kPrivacyXs[r / 2];
        const bool expo = (r % 2) != 0;
        TheoryPrivacyRow row;
        row.x = x;
        if (expo) {
          row.scheme = sprintf_line("TruncGeom a=%.2f K=%lld", kPrivacyAlpha,
                                    static_cast<long long>(kPrivacyDomain));
          const core::TruncatedGeometricK dist(kPrivacyAlpha, kPrivacyDomain);
          const auto d0 = core::exact_output_distribution(dist, 0, probes);
          const auto dx = core::exact_output_distribution(dist, x, probes);
          const core::PrivacyBudget bound = core::expo_privacy(x, kPrivacyAlpha, kPrivacyDomain);
          row.epsilon = bound.epsilon;
          row.measured_delta = core::delta_for_epsilon(d0, dx, bound.epsilon + 1e-9);
          row.bound_delta = bound.delta;
        } else {
          row.scheme = sprintf_line("Uniform K=%lld", static_cast<long long>(kPrivacyDomain));
          const core::UniformK dist(kPrivacyDomain);
          const auto d0 = core::exact_output_distribution(dist, 0, probes);
          const auto dx = core::exact_output_distribution(dist, x, probes);
          const core::PrivacyBudget bound = core::uniform_privacy(x, kPrivacyDomain);
          row.epsilon = bound.epsilon;
          row.measured_delta = core::delta_for_epsilon(d0, dx, bound.epsilon + 1e-9);
          row.bound_delta = bound.delta;
        }
        return row;
      });

  result.wall_seconds = elapsed_seconds(start);
  return result;
}

std::string TheoryValidationResult::format_utility_table() const {
  std::string out = sprintf_line("%-28s %5s  %12s  %12s  %10s\n", "scheme", "c", "closed form",
                                 "simulated", "|error|");
  for (const TheoryUtilityRow& row : utility)
    out += sprintf_line("%-28s %5lld  %12.5f  %12.5f  %10.5f\n", row.scheme.c_str(),
                        static_cast<long long>(row.c), row.closed_form, row.simulated,
                        std::abs(row.closed_form - row.simulated));
  return out;
}

std::string TheoryValidationResult::format_privacy_table() const {
  std::string out = sprintf_line("%-28s %3s  %10s  %12s  %12s\n", "scheme", "x", "epsilon",
                                 "measured", "bound");
  for (const TheoryPrivacyRow& row : privacy)
    out += sprintf_line("%-28s %3lld  %10.4f  %12.6f  %12.6f\n", row.scheme.c_str(),
                        static_cast<long long>(row.x), row.epsilon, row.measured_delta,
                        row.bound_delta);
  return out;
}

}  // namespace ndnp::runner
