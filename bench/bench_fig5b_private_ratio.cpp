// Reproduces Figure 5(b): Exponential-Random-Cache hit rate vs cache size,
// varying the fraction of private requests over {5, 10, 20, 40} %.
//
// Expected shape: hit rate falls as more content is private (more
// simulated misses), with the penalty shrinking at larger cache sizes.
//
// The grid itself lives in runner::run_fig5b (shared with the golden
// regression tests, which lock this table at tolerance 0); each cell is an
// independent run under --jobs, merged in run-index order, so the table is
// byte-identical for any jobs count.
#include <cstdio>

#include "bench_common.hpp"
#include "runner/experiments.hpp"

int main(int argc, char** argv) {
  using namespace ndnp;
  const bench::BenchOptions options = bench::parse_bench_options(argc, argv);
  bench::print_header("Figure 5(b)",
                      "Exponential-Random-Cache hit rate, varying private request share");

  runner::Fig5bConfig config;
  config.trace_requests = bench::scale_from_env("NDNP_TRACE_REQUESTS", 200'000);
  config.trace_objects = bench::scale_from_env("NDNP_TRACE_OBJECTS", 200'000);
  config.jobs = options.jobs;
  runner::SweepTraceCapture capture;
  config.capture = options.configure(capture);
  telemetry::SweepTelemetryCapture telemetry_capture;
  config.telemetry = options.configure_telemetry(telemetry_capture);

  const runner::Fig5bResult result = runner::run_fig5b(config);
  std::printf("trace: %zu requests; k=%lld eps=%.3f -> alpha=%.6f K=%lld; eviction: LRU\n\n",
              result.trace_size, static_cast<long long>(runner::kFig5AnonymityK), config.epsilon,
              result.expo.alpha, static_cast<long long>(result.expo.domain));
  std::fputs(result.format_table().c_str(), stdout);
  bench::report_jobs(config.jobs, result.wall_seconds);

  std::printf("\nPaper: more private requests -> lower hit rate at every cache size;\n"
              "       curves keep the same rising shape in cache size.\n");
  bench::print_footer();
  return 0;
}
