// Shared output helpers for the reproduction bench binaries.
//
// Every bench prints: a header naming the paper artifact it regenerates,
// the parameters in play, the regenerated table/series, and a short
// "paper vs measured" summary line that EXPERIMENTS.md quotes.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "attack/timing_attack.hpp"
#include "runner/runner.hpp"
#include "telemetry/telemetry.hpp"
#include "util/fault_model.hpp"

namespace ndnp::bench {

/// Environment-variable override for experiment scale, e.g.
/// scale_from_env("NDNP_TRACE_REQUESTS", 200'000). Unset, empty or 0 keeps
/// `fallback`; anything but a whole non-negative integer exits 2 naming
/// the variable.
[[nodiscard]] std::size_t scale_from_env(const char* var, std::size_t fallback);

/// Shared bench command line:
///   --jobs N              sweep worker threads (0 = all hardware threads;
///                         env NDNP_JOBS supplies the default)
///   --trace-out PATH      flight-recorder capture; ".jsonl" = JSONL event
///                         dump (trace_inspect reads it), else Chrome
///                         trace-event JSON for Perfetto
///   --trace-filter PREFIX capture only events whose content name starts
///                         with PREFIX
///   --log-level L         stderr logging threshold (error|warn|info|
///                         debug|trace, default warn)
///   --net-loss RATE       degraded-network ablation: Gilbert–Elliott burst
///                         loss on the upstream fetch path (0 = off)
///   --net-burst LEN       mean loss-burst length in packets (default 4)
///   --net-retry-ms MS     retransmission penalty per lost fetch (default 80)
///   --telemetry-out PATH  per-run detector/occupancy time series (".prom" =
///                         Prometheus text exposition, else CSV; multi-run
///                         sweeps splice ".runN" before the extension)
///   --sample-every MS     telemetry sampling cadence in sim-time ms
///                         (default 10)
/// Capturing never changes bench output — golden vectors stay byte-
/// identical with tracing on or off.
struct BenchOptions {
  std::size_t jobs = 1;
  std::string trace_out;
  std::string trace_filter;
  double net_loss = 0.0;
  double net_burst = 4.0;
  double net_retry_ms = 80.0;
  std::string telemetry_out;
  double sample_every_ms = 10.0;

  /// The --net-* flags as a chain config (disabled when --net-loss is 0).
  [[nodiscard]] util::GilbertElliottConfig upstream_loss() const noexcept {
    return util::GilbertElliottConfig::from_loss_and_burst(net_loss, net_burst);
  }
  [[nodiscard]] util::SimDuration upstream_retry_penalty() const noexcept {
    return static_cast<util::SimDuration>(net_retry_ms * 1e6);
  }

  /// Whether any tracing flag was given.
  [[nodiscard]] bool tracing_requested() const noexcept {
    return !trace_out.empty() || !trace_filter.empty();
  }
  /// Fill `capture` from these options and return &capture, or nullptr
  /// when no tracing flag was given (assign the result to config.capture).
  runner::SweepTraceCapture* configure(runner::SweepTraceCapture& capture) const;

  /// Fill `capture` from the --telemetry-out/--sample-every flags and
  /// return &capture, or nullptr when telemetry was not requested (assign
  /// the result to config.telemetry on benches that support it).
  telemetry::SweepTelemetryCapture* configure_telemetry(
      telemetry::SweepTelemetryCapture& capture) const;
};

/// Parse the shared flags above; exits with usage on unknown arguments
/// (--help prints it to stdout and exits 0).
[[nodiscard]] BenchOptions parse_bench_options(int argc, char** argv);

/// Report sweep parallelism/wall-clock on stderr (stdout stays canonical).
void report_jobs(std::size_t jobs, double wall_seconds);

void print_header(const std::string& figure, const std::string& what);
void print_footer();

/// Run a Figure-3 style timing experiment and print the PDF table plus the
/// distinguishing probabilities. When `options` asks for tracing, the
/// attack runs under a bound flight recorder and the capture (adversary
/// probes + router cache/policy ground truth — trace_inspect joins them)
/// is written to options.trace_out.
void run_and_print_timing_figure(const std::string& figure, const std::string& description,
                                 const attack::TimingAttackConfig& config,
                                 const std::string& paper_claim,
                                 const BenchOptions& options = {});

}  // namespace ndnp::bench
