// replay_tool: replay one or more trace files (trace_gen format; real proxy
// logs can be converted to it) through a router cache under a chosen
// privacy scheme and report hit rates and latency.
//
//   replay_tool --trace FILE [--trace FILE ...] [--jobs N]
//               [--policy none|always-delay|uniform|expo|naive]
//               [--cache N] [--eviction lru|fifo|lfu|random]
//               [--private-fraction F] [--k N] [--epsilon E] [--delta D]
//               [--admission P] [--seed N] [--json]
//               [--shards N] [--chunk N] [--max-malformed N]
//               [--trace-out PATH] [--trace-filter PREFIX] [--log-level L]
//
// With several --trace files the replays fan across --jobs threads on the
// deterministic runner (each trace gets its own engine and RNG); results
// print in trace order, identical for any jobs count. --json replaces the
// human-readable tables with the merged metrics JSON (per-trace snapshots +
// cross-trace aggregate), so stdout is directly machine-parseable.
//
// --shards N switches to the streaming sharded replayer (docs/SCALE.md):
// each trace is streamed from disk — never materialized — through N
// independent edge-router shards (users pinned by stable hash), fanned
// across --jobs threads. The merged output is byte-identical for any
// --jobs value. Trace files may be plain text or the chunked binary format
// (sniffed by magic); --chunk bounds the per-shard record buffer.
// --max-malformed tolerates up to N malformed input lines (counted and
// reported; default 0 = fail on the first).
//
// --trace-out captures a flight-recorder event stream per replay (".jsonl"
// for the line-oriented dump readable by trace_inspect, anything else for
// Chrome trace-event JSON loadable in Perfetto); --trace-filter restricts
// the capture to content names with the given prefix. Capturing never
// changes replay results (see docs/OBSERVABILITY.md). --trace-out,
// --trace-filter and --telemetry-out apply to the in-memory path only and
// draw a warning with --shards.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "core/theory.hpp"
#include "runner/experiments.hpp"
#include "runner/runner.hpp"
#include "runner/sharded_replay.hpp"
#include "trace/replayer.hpp"
#include "trace/stream.hpp"
#include "util/logging.hpp"
#include "util/run_path.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --trace FILE [--trace FILE ...] [--jobs N]\n"
      "          [--policy none|always-delay|uniform|expo|naive]\n"
      "          [--cache N] [--eviction lru|fifo|lfu|random] [--private-fraction F]\n"
      "          [--k N] [--epsilon E] [--delta D] [--admission P] [--seed N] [--json]\n"
      "          [--shards N] [--chunk N] [--max-malformed N]\n"
      "          [--trace-out PATH] [--trace-filter PREFIX]\n"
      "          [--log-level error|warn|info|debug|trace]\n"
      "\n"
      "  --shards N            stream each trace through N independent router\n"
      "                        shards (users pinned by stable hash) instead of\n"
      "                        one in-memory router; byte-identical merged\n"
      "                        output for any --jobs value\n"
      "  --chunk N             records buffered per shard pass (default 65536)\n"
      "  --max-malformed N     tolerate up to N malformed trace lines\n"
      "                        (counted and reported; default 0)\n"
      "  --trace-out PATH      write a flight-recorder capture per replay; a\n"
      "                        .jsonl suffix selects the JSONL event dump\n"
      "                        (readable by trace_inspect), anything else the\n"
      "                        Chrome trace-event JSON for Perfetto (ignored\n"
      "                        with --shards)\n"
      "  --trace-filter PREFIX capture only events whose content name starts\n"
      "                        with PREFIX (ignored with --shards)\n"
      "  --telemetry-out PATH  sample the online telemetry time series per\n"
      "                        replay (detector statistics, occupancy gauges);\n"
      "                        a .prom suffix selects Prometheus text\n"
      "                        exposition, anything else CSV (in-memory path\n"
      "                        only; ignored with --shards)\n"
      "  --sample-every MS     telemetry sampling cadence in sim-time\n"
      "                        milliseconds (default 10)\n"
      "  --metrics-out PATH    write the final merged metrics JSON to PATH in\n"
      "                        addition to the normal stdout report\n"
      "  --log-level L         stderr logging threshold (default: warn)\n",
      argv0);
}

/// The whole of `value` as an integer in [0, max]; exits 2 naming `flag`
/// otherwise (no sign, no trailing characters).
std::uint64_t parse_count(const char* argv0, const char* flag, const char* value,
                          std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const char* end = value + std::strlen(value);
  std::uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || parsed > max) {
    std::fprintf(stderr, "%s: %s expects a non-negative integer, got '%s'\n", argv0, flag,
                 value);
    std::exit(2);
  }
  return parsed;
}

/// The whole of `value` as a finite number in [0, max]; exits 2 naming
/// `flag` otherwise.
double parse_real(const char* argv0, const char* flag, const char* value,
                  double max = std::numeric_limits<double>::max()) {
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(parsed >= 0.0 && parsed <= max)) {
    if (max < std::numeric_limits<double>::max())
      std::fprintf(stderr, "%s: %s expects a number in [0, %g], got '%s'\n", argv0, flag, max,
                   value);
    else
      std::fprintf(stderr, "%s: %s expects a non-negative number, got '%s'\n", argv0, flag,
                   value);
    std::exit(2);
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ndnp;

  std::vector<std::string> trace_paths;
  std::string policy_name = "none";
  trace::ReplayConfig config;
  std::int64_t k = 5;
  double epsilon = 0.005;
  double delta = 0.05;
  std::size_t jobs = 1;
  std::size_t shards = 0;
  std::size_t chunk_records = 64 * 1024;
  std::uint64_t max_malformed = 0;
  bool emit_json = false;
  runner::SweepTraceCapture capture;
  telemetry::SweepTelemetryCapture telemetry_capture;
  double sample_every_ms = 10.0;
  std::string metrics_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trace")
      trace_paths.emplace_back(next());
    else if (arg == "--jobs")
      jobs = runner::resolve_jobs(parse_count(argv[0], arg.c_str(), next()));
    else if (arg == "--json")
      emit_json = true;
    else if (arg == "--shards")
      shards = parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--chunk")
      chunk_records = parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--max-malformed")
      max_malformed = parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--policy")
      policy_name = next();
    else if (arg == "--cache")
      config.cache_capacity = parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--eviction") {
      const std::string ev = next();
      if (ev == "lru")
        config.eviction = cache::EvictionPolicy::kLru;
      else if (ev == "fifo")
        config.eviction = cache::EvictionPolicy::kFifo;
      else if (ev == "lfu")
        config.eviction = cache::EvictionPolicy::kLfu;
      else if (ev == "random")
        config.eviction = cache::EvictionPolicy::kRandom;
      else {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--private-fraction")
      config.private_fraction = parse_real(argv[0], arg.c_str(), next(), 1.0);
    else if (arg == "--k")
      k = static_cast<std::int64_t>(
          parse_count(argv[0], arg.c_str(), next(), std::numeric_limits<std::int64_t>::max()));
    else if (arg == "--epsilon")
      epsilon = parse_real(argv[0], arg.c_str(), next());
    else if (arg == "--delta")
      delta = parse_real(argv[0], arg.c_str(), next(), 1.0);
    else if (arg == "--admission")
      config.cache_admission_probability = parse_real(argv[0], arg.c_str(), next(), 1.0);
    else if (arg == "--seed")
      config.seed = parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--trace-out")
      capture.out_path = next();
    else if (arg == "--trace-filter")
      capture.filter = next();
    else if (arg == "--telemetry-out")
      telemetry_capture.out_path = next();
    else if (arg == "--sample-every")
      sample_every_ms = parse_real(argv[0], arg.c_str(), next());
    else if (arg == "--metrics-out")
      metrics_out = next();
    else if (arg == "--log-level") {
      const char* value = next();
      util::LogLevel level;
      if (!util::parse_log_level(value, level)) {
        std::fprintf(stderr, "%s: unknown log level '%s'\n", argv[0], value);
        return 2;
      }
      util::set_log_level(level);
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  if (trace_paths.empty()) {
    usage(argv[0]);
    return 2;
  }

  std::vector<trace::Trace> traces;
  std::vector<std::uint64_t> trace_malformed;
  if (shards == 0) {
    // In-memory path; the sharded path streams from disk and never loads.
    traces.reserve(trace_paths.size());
    for (const std::string& path : trace_paths) {
      trace::ParseOptions options;
      options.max_malformed = max_malformed;
      try {
        // open_trace_source sniffs the format, so text and binary traces
        // both work here (same as the sharded path).
        const auto source = trace::open_trace_source(path, options);
        trace::Trace tr;
        tr.catalogue_size = source->catalogue_size();
        std::vector<trace::TraceRecord> chunk;
        while (source->next_chunk(chunk, 64 * 1024))
          tr.records.insert(tr.records.end(), std::make_move_iterator(chunk.begin()),
                            std::make_move_iterator(chunk.end()));
        trace_malformed.push_back(source->stats().malformed);
        traces.push_back(std::move(tr));
      } catch (const trace::TraceParseError& error) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.what());
        return 1;
      }
      std::fprintf(stderr, "loaded %s: %zu requests (%zu distinct names", path.c_str(),
                   traces.back().size(), traces.back().distinct_names());
      if (trace_malformed.back() > 0)
        std::fprintf(stderr, ", %llu malformed line(s) skipped",
                     static_cast<unsigned long long>(trace_malformed.back()));
      std::fprintf(stderr, ")\n");
    }
  }

  if (policy_name == "none") {
    config.policy_factory = [] { return std::make_unique<core::NoPrivacyPolicy>(); };
  } else if (policy_name == "always-delay") {
    config.policy_factory = [] {
      return std::make_unique<core::AlwaysDelayPolicy>(
          core::AlwaysDelayPolicy::content_specific());
    };
  } else if (policy_name == "uniform") {
    const std::int64_t domain = core::uniform_domain_for_delta(k, delta);
    std::fprintf(stderr, "Uniform-Random-Cache: K=%lld (k=%lld delta=%.3f)\n",
                 static_cast<long long>(domain), static_cast<long long>(k), delta);
    config.policy_factory = [domain, seed = config.seed] {
      return core::RandomCachePolicy::uniform(domain, seed + 1);
    };
  } else if (policy_name == "expo") {
    const auto params = core::solve_expo_params(k, epsilon, delta);
    if (!params) {
      std::fprintf(stderr, "(k=%lld, eps=%.4f, delta=%.4f) unattainable\n",
                   static_cast<long long>(k), epsilon, delta);
      return 1;
    }
    std::fprintf(stderr, "Exponential-Random-Cache: alpha=%.6f K=%lld\n", params->alpha,
                 static_cast<long long>(params->domain));
    config.policy_factory = [params = *params, seed = config.seed] {
      return core::RandomCachePolicy::exponential(params.alpha, params.domain, seed + 1);
    };
  } else if (policy_name == "naive") {
    config.policy_factory = [k] { return std::make_unique<core::NaiveThresholdPolicy>(k); };
  } else {
    usage(argv[0]);
    return 2;
  }

  if (shards > 0) {
    if (!telemetry_capture.out_path.empty())
      std::fprintf(stderr, "warning: --telemetry-out is ignored with --shards\n");
    if (!capture.out_path.empty() || !capture.filter.empty())
      std::fprintf(stderr,
                   "warning: --trace-out and --trace-filter are ignored with --shards\n");
    // Streaming sharded replay, one trace at a time (each already fans its
    // shards across --jobs threads).
    runner::ShardedReplayConfig sharded;
    sharded.shards = shards;
    sharded.jobs = jobs;
    sharded.chunk_records = chunk_records;
    sharded.master_seed = config.seed;
    sharded.replay = config;
    for (std::size_t t = 0; t < trace_paths.size(); ++t) {
      const std::string& path = trace_paths[t];
      trace::ParseOptions options;
      options.max_malformed = max_malformed;
      runner::ShardedReplayResult result;
      try {
        result = runner::replay_sharded(
            [&path, options] { return trace::open_trace_source(path, options); }, sharded);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.what());
        return 1;
      }
      if (!metrics_out.empty()) {
        // One file per trace (".runN" spliced in when replaying several).
        const std::string out_path = util::run_path(metrics_out, t, trace_paths.size());
        std::ofstream out(out_path);
        out << result.merged_json() << '\n';
        if (!out) {
          std::fprintf(stderr, "%s: cannot write %s\n", argv[0], out_path.c_str());
          return 1;
        }
      }
      if (emit_json) {
        std::printf("%s\n", result.merged_json().c_str());
        continue;
      }
      if (trace_paths.size() > 1) std::printf("=== trace %s ===\n", path.c_str());
      std::printf("policy=%s shards=%zu jobs=%zu cache=%zu eviction=%s private=%.0f%%\n",
                  policy_name.c_str(), shards, jobs, config.cache_capacity,
                  std::string(cache::to_string(config.eviction)).c_str(),
                  config.private_fraction * 100.0);
      const auto merged_counter = [&result](const char* name) -> unsigned long long {
        const auto it = result.merged.counters.find(name);
        return it == result.merged.counters.end() ? 0ULL : it->second;
      };
      std::printf("records             %llu\n",
                  static_cast<unsigned long long>(result.records));
      std::printf("malformed lines     %llu\n",
                  static_cast<unsigned long long>(result.malformed_records));
      std::printf("exposed hits        %llu (%.2f%%)\n", merged_counter("engine.exposed_hits"),
                  result.merged.gauges.at("replay.hit_rate_pct"));
      std::printf("delayed hits        %llu\n", merged_counter("engine.delayed_hits"));
      std::printf("simulated misses    %llu\n", merged_counter("engine.simulated_misses"));
      std::printf("true misses         %llu\n", merged_counter("engine.true_misses"));
      std::printf("served from cache   %.2f%%\n",
                  result.merged.gauges.at("replay.cache_served_pct"));
      std::printf("mean response       %.3f ms\n",
                  result.merged.gauges.at("replay.mean_response_ms"));
      std::printf("wall seconds        %.3f\n", result.wall_seconds);
    }
    return 0;
  }

  // One run per trace, fanned across --jobs threads; each run gets a fresh
  // engine via the policy factory, so traces never share mutable state.
  runner::SweepOptions options;
  options.jobs = jobs;
  options.master_seed = config.seed;
  if (!capture.out_path.empty() || !capture.filter.empty()) options.capture = &capture;
  if (!telemetry_capture.out_path.empty()) {
    if (sample_every_ms <= 0.0) {
      std::fprintf(stderr, "%s: --sample-every must be positive\n", argv[0]);
      return 2;
    }
    telemetry_capture.options.sample_every =
        static_cast<util::SimDuration>(sample_every_ms * 1e6);
    options.telemetry = &telemetry_capture;
  }
  const std::vector<trace::ReplayResult> results = runner::run_sweep<trace::ReplayResult>(
      traces.size(), options, [&](const runner::RunContext& ctx) {
        trace::ReplayConfig run_config = config;
        if (options.telemetry != nullptr)
          run_config.telemetry = options.telemetry->run_hub(ctx.run_index);
        trace::ReplayResult out = trace::replay(traces[ctx.run_index], run_config);
        out.metrics.counters["replay.malformed_records"] = trace_malformed[ctx.run_index];
        return out;
      });

  runner::SweepResult sweep;
  for (const trace::ReplayResult& r : results) sweep.runs.push_back(r.metrics);
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    out << sweep.merged_json() << '\n';
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0], metrics_out.c_str());
      return 1;
    }
  }
  if (emit_json) {
    // Pure JSON on stdout so the output pipes straight into a parser.
    std::printf("%s\n", sweep.merged_json().c_str());
    return 0;
  }

  for (std::size_t t = 0; t < results.size(); ++t) {
    const trace::ReplayResult& result = results[t];
    if (results.size() > 1) std::printf("=== trace %s ===\n", trace_paths[t].c_str());
    std::printf("policy=%s cache=%zu eviction=%s private=%.0f%% admission=%.2f\n",
                policy_name.c_str(), config.cache_capacity,
                std::string(cache::to_string(config.eviction)).c_str(),
                config.private_fraction * 100.0, config.cache_admission_probability);
    std::printf("requests            %llu\n",
                static_cast<unsigned long long>(result.stats.requests));
    std::printf("exposed hits        %llu (%.2f%%)\n",
                static_cast<unsigned long long>(result.stats.exposed_hits),
                result.hit_rate_pct());
    std::printf("delayed hits        %llu\n",
                static_cast<unsigned long long>(result.stats.delayed_hits));
    std::printf("simulated misses    %llu\n",
                static_cast<unsigned long long>(result.stats.simulated_misses));
    std::printf("true misses         %llu\n",
                static_cast<unsigned long long>(result.stats.true_misses));
    std::printf("served from cache   %.2f%%\n", result.cache_served_pct());
    std::printf("mean response       %.3f ms\n", result.mean_response_ms);
    std::printf("private requests    %llu\n",
                static_cast<unsigned long long>(result.private_requests));
    std::printf("malformed lines     %llu\n",
                static_cast<unsigned long long>(trace_malformed[t]));
  }

  return 0;
}
