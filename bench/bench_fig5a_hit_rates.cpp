// Reproduces Figure 5(a): cache hit rate vs cache size for the four cache
// management schemes, replaying a proxy trace (synthetic IRCache-like; see
// DESIGN.md substitution table).
//
// Parameters follow Section VII: LRU eviction, 20 % of content private,
// k = 5, eps = 0.005, cache sizes {2000, 4000, 8000, 16000, 32000, Inf}.
// Expected shape: No-Privacy > Exponential > Uniform > Always-Delay at
// every size, all rising with cache size.
//
// The scheme x size grid runs on the deterministic parallel runner
// (runner::run_fig5a); pass --jobs N to fan the 24 replays across N
// threads. Stdout is byte-identical for every jobs value (the golden
// vectors under tests/golden/ pin it).
#include <cstdio>

#include "bench_common.hpp"
#include "runner/experiments.hpp"

int main(int argc, char** argv) {
  using namespace ndnp;
  const bench::BenchOptions options = bench::parse_bench_options(argc, argv);
  const std::size_t jobs = options.jobs;
  bench::print_header("Figure 5(a)", "cache hit rates by scheme and cache size (trace replay)");

  runner::Fig5aConfig config;
  config.trace_requests = bench::scale_from_env("NDNP_TRACE_REQUESTS", 200'000);
  config.trace_objects = bench::scale_from_env("NDNP_TRACE_OBJECTS", 200'000);
  config.jobs = jobs;
  config.upstream_loss = options.upstream_loss();
  config.upstream_retry_penalty = options.upstream_retry_penalty();
  runner::SweepTraceCapture capture;
  config.capture = options.configure(capture);
  telemetry::SweepTelemetryCapture telemetry_capture;
  config.telemetry = options.configure_telemetry(telemetry_capture);

  runner::Fig5aResult result;
  try {
    result = runner::run_fig5a(config);
  } catch (const std::exception& e) {
    std::printf("%s\n", e.what());
    return 1;
  }

  std::printf("trace: %zu requests, %zu users, %zu distinct objects (synthetic IRCache-like)\n",
              result.trace_size, trace::TraceGenConfig{}.num_users, result.trace_distinct);
  std::printf("k=%lld eps=%.3f delta=%.2f -> Uniform K=%lld; Expo alpha=%.6f K=%lld\n",
              static_cast<long long>(runner::kFig5AnonymityK), config.epsilon, config.delta,
              static_cast<long long>(result.uniform_domain), result.expo.alpha,
              static_cast<long long>(result.expo.domain));
  std::printf("private fraction: %.2f, eviction: LRU\n", config.private_fraction);
  if (config.upstream_loss.enabled())
    std::printf("degraded network: %.1f%% upstream burst loss (mean burst %.1f pkts, "
                "retry penalty %.0f ms)\n",
                100.0 * config.upstream_loss.stationary_loss(), options.net_burst,
                options.net_retry_ms);
  std::printf("\n%s", result.format_table().c_str());
  if (config.upstream_loss.enabled()) std::printf("\n%s", result.format_delay_table().c_str());

  std::printf("\nPaper: hit rates rise with cache size; ordering No-Privacy > Exponential >\n"
              "       Uniform > Always-Delay throughout (Figure 5(a) spans ~10-50%%).\n");
  bench::print_footer();
  bench::report_jobs(jobs, result.wall_seconds);
  return 0;
}
