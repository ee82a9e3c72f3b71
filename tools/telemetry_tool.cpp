// telemetry_tool: drive the online telemetry detectors end to end and
// score them against labelled ground truth.
//
//   telemetry_tool --mode attack [--seed S] [--duration-ms N]
//                  [--attack-start-ms N] [--probe-period-ms N]
//                  [--window-ms W] [--min-recall R]
//                  [--telemetry-out PATH] [--sample-every MS]
//                  [--trace-out PATH]
//   telemetry_tool --mode clean  [--requests N] [--jobs J]
//                  [--max-alarms N] [--telemetry-out PATH]
//   telemetry_tool --mode score  --trace FILE.jsonl [--window-ms W]
//
// Modes:
//  * attack — run the labelled sequential-probing scenario
//    (attack/telemetry_scenario.hpp): honest Zipf traffic for the whole
//    run, a fixed-cadence private probe loop from --attack-start-ms on.
//    Alarms and attack_probe ground truth land in one capture, which is
//    joined into the per-detector precision/recall/latency scorecard
//    (sim::telemetry_scorecard). --min-recall gates the "any" row: exit 1
//    when the detectors miss the attack. This is the CI recall floor.
//  * clean — replay the Figure 5(a) workload (honest trace replay, seed
//    99, every scheme x cache-size cell) with telemetry armed and count
//    alarms. There is no attack here, so every alarm is false.
//    --max-alarms gates the total: the CI false-alarm ceiling.
//  * score — re-score an existing JSONL capture (e.g. from replay_tool
//    --trace-out) without re-running anything.
//
// See docs/OBSERVABILITY.md ("Online telemetry") for the workflow.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "attack/telemetry_scenario.hpp"
#include "runner/experiments.hpp"
#include "sim/trace_sinks.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"
#include "util/tracing.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --mode attack|clean|score [options]\n"
      "\n"
      "attack mode (default): labelled probe scenario -> detector scorecard\n"
      "  --seed S             scenario seed (default 7)\n"
      "  --duration-ms N      run length (default 30000)\n"
      "  --attack-start-ms N  when the probe loop wakes (default 10000)\n"
      "  --probe-period-ms F  probe cadence, fractional ok (default 5)\n"
      "  --window-ms F        scorecard join window (default 250)\n"
      "  --min-recall R       exit 1 if the 'any' detector recall < R\n"
      "  --trace-out PATH     also dump the joined capture as JSONL\n"
      "clean mode: Figure 5(a) replay (seed 99) with telemetry armed\n"
      "  --requests N         trace length per cell (default 60000)\n"
      "  --jobs J             sweep workers (default 1)\n"
      "  --max-alarms N       exit 1 if total alarms across cells > N\n"
      "score mode: score an existing capture\n"
      "  --trace FILE.jsonl   capture to score (required)\n"
      "  --window-ms F        scorecard join window (default 250)\n"
      "common\n"
      "  --telemetry-out PATH time-series export (.prom = Prometheus, else CSV)\n"
      "  --sample-every MS    sampling cadence (default 10)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ndnp;

  std::string mode = "attack";
  std::uint64_t seed = 7;
  double duration_ms = 30'000.0;
  double attack_start_ms = 10'000.0;
  double probe_period_ms = 5.0;
  double window_ms = 250.0;
  double min_recall = -1.0;
  double sample_every_ms = 10.0;
  std::size_t requests = 60'000;
  std::size_t jobs = 1;
  std::int64_t max_alarms = -1;
  std::string telemetry_out;
  std::string trace_out;
  std::string trace_in;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--mode")
      mode = next();
    else if (arg == "--seed")
      seed = util::parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--duration-ms")
      duration_ms = util::parse_real(argv[0], arg.c_str(), next());
    else if (arg == "--attack-start-ms")
      attack_start_ms = util::parse_real(argv[0], arg.c_str(), next());
    else if (arg == "--probe-period-ms")
      probe_period_ms = util::parse_real(argv[0], arg.c_str(), next());
    else if (arg == "--window-ms")
      window_ms = util::parse_real(argv[0], arg.c_str(), next());
    else if (arg == "--min-recall")
      min_recall = util::parse_real(argv[0], arg.c_str(), next(), 1.0);
    else if (arg == "--sample-every")
      sample_every_ms = util::parse_real(argv[0], arg.c_str(), next());
    else if (arg == "--requests")
      requests = util::parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--jobs")
      jobs = util::parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--max-alarms")
      max_alarms = static_cast<std::int64_t>(util::parse_count(
          argv[0], arg.c_str(), next(), std::numeric_limits<std::int64_t>::max()));
    else if (arg == "--telemetry-out")
      telemetry_out = next();
    else if (arg == "--trace-out")
      trace_out = next();
    else if (arg == "--trace")
      trace_in = next();
    else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (window_ms <= 0.0 || sample_every_ms <= 0.0) {
    std::fprintf(stderr, "error: --window-ms and --sample-every must be positive\n");
    return 2;
  }
  const auto window = static_cast<util::SimDuration>(window_ms * 1e6);

  if (mode == "attack") {
    attack::TelemetryScenarioConfig config;
    config.seed = seed;
    config.duration = static_cast<util::SimDuration>(duration_ms * 1e6);
    config.attack_start = static_cast<util::SimTime>(attack_start_ms * 1e6);
    config.probe_period = static_cast<util::SimDuration>(probe_period_ms * 1e6);

    telemetry::TelemetryOptions options;
    options.sample_every = static_cast<util::SimDuration>(sample_every_ms * 1e6);
    telemetry::TelemetryHub hub(options, "router");

    util::Tracer tracer;
    attack::TelemetryScenarioResult result{};
    {
      util::TracerBinding binding(&tracer);
      result = attack::run_telemetry_scenario(config, &hub);
    }

    std::printf("scenario: %llu honest requests (%llu data), %llu probes (%llu data)\n",
                static_cast<unsigned long long>(result.honest_requests),
                static_cast<unsigned long long>(result.honest_data),
                static_cast<unsigned long long>(result.probes),
                static_cast<unsigned long long>(result.probe_data));
    std::printf("router: %llu exposed hits, %llu delayed hits, %llu lookups into telemetry\n",
                static_cast<unsigned long long>(result.router_outcomes.exposed_hits),
                static_cast<unsigned long long>(result.router_outcomes.delayed_hits),
                static_cast<unsigned long long>(hub.lookups()));

    const std::vector<sim::FlatEvent> events = sim::flatten(tracer);
    const sim::TelemetryScorecard card = sim::telemetry_scorecard(events, window);
    std::printf("%s", card.format_table().c_str());

    if (!telemetry_out.empty()) hub.recorder().write_file(telemetry_out);
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) {
        std::fprintf(stderr, "error: cannot open %s\n", trace_out.c_str());
        return 2;
      }
      sim::write_trace_jsonl(events, out);
    }

    if (min_recall >= 0.0 && card.any().recall < min_recall) {
      std::fprintf(stderr, "FAIL: any-detector recall %.4f < floor %.4f\n", card.any().recall,
                   min_recall);
      return 1;
    }
    return 0;
  }

  if (mode == "clean") {
    runner::Fig5aConfig config;
    config.trace_requests = requests;
    config.trace_objects = requests;
    config.jobs = jobs;

    telemetry::SweepTelemetryCapture capture;
    capture.out_path = telemetry_out;
    capture.options.sample_every = static_cast<util::SimDuration>(sample_every_ms * 1e6);
    config.telemetry = &capture;

    const runner::Fig5aResult result = runner::run_fig5a(config);

    std::uint64_t lookups = 0;
    std::uint64_t alarms = 0;
    std::uint64_t by_kind[telemetry::kDetectorKinds] = {};
    for (const auto& hub : capture.runs) {
      if (hub == nullptr) continue;
      lookups += hub->lookups();
      alarms += hub->alarms_total();
      for (std::size_t k = 0; k < telemetry::kDetectorKinds; ++k)
        by_kind[k] += hub->alarms(static_cast<telemetry::DetectorKind>(k));
    }
    std::printf("clean fig5a: %zu cells, %zu trace requests/cell, %llu lookups\n",
                capture.runs.size(), result.trace_size,
                static_cast<unsigned long long>(lookups));
    for (std::size_t k = 0; k < telemetry::kDetectorKinds; ++k)
      std::printf("  %-20s %llu alarms\n",
                  std::string(telemetry::to_string(static_cast<telemetry::DetectorKind>(k)))
                      .c_str(),
                  static_cast<unsigned long long>(by_kind[k]));
    std::printf("false alarms total: %llu\n", static_cast<unsigned long long>(alarms));

    if (max_alarms >= 0 && alarms > static_cast<std::uint64_t>(max_alarms)) {
      std::fprintf(stderr, "FAIL: %llu false alarms > ceiling %lld\n",
                   static_cast<unsigned long long>(alarms),
                   static_cast<long long>(max_alarms));
      return 1;
    }
    return 0;
  }

  if (mode == "score") {
    if (trace_in.empty()) {
      usage(argv[0]);
      return 2;
    }
    std::ifstream in(trace_in);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", trace_in.c_str());
      return 2;
    }
    std::vector<sim::FlatEvent> events;
    try {
      events = sim::parse_trace_jsonl(in);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "%s: %s\n", trace_in.c_str(), ex.what());
      return 2;
    }
    const sim::TelemetryScorecard card = sim::telemetry_scorecard(events, window);
    std::printf("%s", card.format_table().c_str());
    return 0;
  }

  usage(argv[0]);
  return 2;
}
