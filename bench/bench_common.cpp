#include "bench_common.hpp"

#include <cstdlib>
#include <cstring>

#include "runner/runner.hpp"
#include "sim/trace_sinks.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/tracing.hpp"

namespace ndnp::bench {

std::size_t scale_from_env(const char* var, std::size_t fallback) {
  const char* value = std::getenv(var);
  if (value == nullptr || *value == '\0') return fallback;
  const std::uint64_t parsed = util::parse_count("error", var, value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

namespace {

void bench_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--jobs N] [--trace-out PATH] [--trace-filter PREFIX]\n"
               "          [--log-level error|warn|info|debug|trace]\n"
               "          [--net-loss RATE] [--net-burst LEN] [--net-retry-ms MS]\n"
               "          [--telemetry-out PATH] [--sample-every MS]\n"
               "\n"
               "  --jobs N              sweep worker threads (0 = all hardware threads;\n"
               "                        env NDNP_JOBS supplies the default)\n"
               "  --trace-out PATH      write a flight-recorder capture; a .jsonl suffix\n"
               "                        selects the JSONL event dump (readable by\n"
               "                        trace_inspect), anything else the Chrome\n"
               "                        trace-event JSON for Perfetto\n"
               "  --trace-filter PREFIX capture only events whose content name starts\n"
               "                        with PREFIX\n"
               "  --log-level L         stderr logging threshold (default: warn)\n"
               "  --net-loss RATE       Gilbert-Elliott burst loss rate on the upstream\n"
               "                        fetch path, 0..1 (default 0 = clean network)\n"
               "  --net-burst LEN       mean loss-burst length in packets (default 4)\n"
               "  --net-retry-ms MS     retry penalty per lost fetch (default 80)\n"
               "  --telemetry-out PATH  write the per-run telemetry time series (.prom =\n"
               "                        Prometheus text exposition, else CSV)\n"
               "  --sample-every MS     telemetry sampling cadence in sim-time ms\n"
               "                        (default 10)\n",
               argv0);
}

}  // namespace

runner::SweepTraceCapture* BenchOptions::configure(runner::SweepTraceCapture& capture) const {
  if (!tracing_requested()) return nullptr;
  capture.out_path = trace_out;
  capture.filter = trace_filter;
  return &capture;
}

telemetry::SweepTelemetryCapture* BenchOptions::configure_telemetry(
    telemetry::SweepTelemetryCapture& capture) const {
  if (telemetry_out.empty()) return nullptr;
  capture.out_path = telemetry_out;
  capture.options.sample_every = static_cast<util::SimDuration>(sample_every_ms * 1e6);
  return &capture;
}

BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions options;
  options.jobs = scale_from_env("NDNP_JOBS", 1);
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        bench_usage(stderr, argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    const char* flag = argv[i];
    if (std::strcmp(flag, "--jobs") == 0) {
      options.jobs = runner::resolve_jobs(util::parse_count(argv[0], flag, next()));
    } else if (std::strcmp(flag, "--net-loss") == 0) {
      options.net_loss = util::parse_real(argv[0], flag, next(), 1.0);
      if (options.net_loss >= 1.0) {
        std::fprintf(stderr, "%s: --net-loss expects a number below 1\n", argv[0]);
        std::exit(2);
      }
    } else if (std::strcmp(flag, "--net-burst") == 0) {
      options.net_burst = util::parse_real(argv[0], flag, next());
    } else if (std::strcmp(flag, "--net-retry-ms") == 0) {
      options.net_retry_ms = util::parse_real(argv[0], flag, next());
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      options.trace_out = next();
    } else if (std::strcmp(flag, "--trace-filter") == 0) {
      options.trace_filter = next();
    } else if (std::strcmp(flag, "--telemetry-out") == 0) {
      options.telemetry_out = next();
    } else if (std::strcmp(flag, "--sample-every") == 0) {
      options.sample_every_ms = util::parse_real(argv[0], flag, next());
      if (options.sample_every_ms <= 0.0) {
        std::fprintf(stderr, "%s: --sample-every expects a positive number\n", argv[0]);
        std::exit(2);
      }
    } else if (std::strcmp(flag, "--log-level") == 0) {
      const char* value = next();
      util::LogLevel level;
      if (!util::parse_log_level(value, level)) {
        std::fprintf(stderr, "%s: unknown log level '%s'\n", argv[0], value);
        std::exit(2);
      }
      util::set_log_level(level);
    } else if (std::strcmp(flag, "--help") == 0 || std::strcmp(flag, "-h") == 0) {
      bench_usage(stdout, argv[0]);
      std::exit(0);
    } else {
      bench_usage(stderr, argv[0]);
      std::exit(2);
    }
  }
  return options;
}

void report_jobs(std::size_t jobs, double wall_seconds) {
  std::fprintf(stderr, "[sweep] jobs=%zu wall=%.3fs\n", jobs, wall_seconds);
}

void print_header(const std::string& figure, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), what.c_str());
  std::printf("==============================================================\n");
}

void print_footer() { std::printf("\n"); }

void run_and_print_timing_figure(const std::string& figure, const std::string& description,
                                 const attack::TimingAttackConfig& config,
                                 const std::string& paper_claim, const BenchOptions& options) {
  print_header(figure, description);
  std::printf("trials=%zu contents/trial=%zu seed=%llu mode=%s\n\n", config.trials,
              config.contents_per_trial, static_cast<unsigned long long>(config.seed),
              config.producer_mode ? "producer-probe (double fetch)" : "consumer-probe");

  // When tracing is requested the attack runs under a bound flight
  // recorder; the tracer only observes, so the printed tables are
  // byte-identical either way (golden tests pin this).
  util::Tracer tracer(runner::SweepTraceCapture::kRingCapacity);
  tracer.set_filter(options.trace_filter);
  attack::TimingAttackResult result;
  {
    util::TracerBinding binding(options.tracing_requested() ? &tracer : nullptr);
    result = attack::run_timing_attack(config);
  }
  if (!options.trace_out.empty()) sim::write_trace_file(tracer, options.trace_out);

  // The report body is shared with the golden regression tests, which lock
  // its exact bytes at fixed seeds (attack::format_timing_report).
  std::fputs(attack::format_timing_report(result).c_str(), stdout);
  std::printf("Paper: %s\n", paper_claim.c_str());
  print_footer();
}

}  // namespace ndnp::bench
