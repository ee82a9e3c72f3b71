// trace_gen: generate a synthetic IRCache-like request trace, or convert an
// existing trace between the plain-text and chunked binary formats.
//
//   trace_gen [--requests N] [--objects N] [--users N] [--domains N]
//             [--zipf S] [--duration SECONDS] [--seed N] [--out FILE]
//             [--format text|binary] [--stream] [--chunk N]
//   trace_gen --convert IN --out OUT [--format text|binary]
//             [--max-malformed N]
//
// The default path materializes the trace in memory (generate_trace).
// --stream switches to the bounded-memory generator (trace/stream.hpp):
// records go straight to the sink chunk by chunk, so millions of users and
// a ~10M-name catalogue fit in a fixed footprint — the scale mode used by
// the CI scale smoke. Without --out the text trace goes to stdout.
// --format binary (which needs --out) writes the "NDNPTRB1" chunked
// format, which replays parse ~10x faster than text.
// --convert streams an existing trace (either format, sniffed by magic)
// into --out under --format, counting — and bounding, per --max-malformed —
// malformed input lines.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "trace/stream.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--requests N] [--objects N] [--users N] [--domains N]\n"
               "          [--zipf S] [--duration SECONDS] [--seed N] [--out FILE]\n"
               "          [--format text|binary] [--stream] [--chunk N]\n"
               "       %s --convert IN --out OUT [--format text|binary]\n"
               "          [--max-malformed N]\n",
               argv0, argv0);
}

/// The sink for `path` under `format`; text goes to stdout when `path` is
/// empty.
std::unique_ptr<ndnp::trace::TraceWriter> open_writer(const std::string& path,
                                                      const std::string& format,
                                                      std::size_t catalogue_size,
                                                      std::size_t chunk_records) {
  if (format == "binary")
    return std::make_unique<ndnp::trace::BinaryTraceWriter>(path, catalogue_size,
                                                            chunk_records);
  if (path.empty()) return std::make_unique<ndnp::trace::TextTraceWriter>(std::cout);
  return std::make_unique<ndnp::trace::TextTraceWriter>(path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ndnp;
  trace::TraceGenConfig config;
  std::string out_path;
  std::string convert_path;
  std::string format = "text";
  bool stream = false;
  std::size_t chunk_records = 64 * 1024;
  std::uint64_t max_malformed = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--requests")
      config.num_requests = util::parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--objects")
      config.num_objects = util::parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--users")
      config.num_users = util::parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--domains")
      config.num_domains = util::parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--zipf")
      config.zipf_exponent = util::parse_real(argv[0], arg.c_str(), next());
    else if (arg == "--duration")
      config.duration_s = util::parse_real(argv[0], arg.c_str(), next());
    else if (arg == "--seed")
      config.seed = util::parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--out")
      out_path = next();
    else if (arg == "--convert")
      convert_path = next();
    else if (arg == "--format") {
      format = next();
      if (format != "text" && format != "binary") {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--stream")
      stream = true;
    else if (arg == "--chunk")
      chunk_records = util::parse_count(argv[0], arg.c_str(), next());
    else if (arg == "--max-malformed")
      max_malformed = util::parse_count(argv[0], arg.c_str(), next());
    else {
      usage(argv[0]);
      return 2;
    }
  }
  if (chunk_records == 0) {
    std::fprintf(stderr, "%s: --chunk must be positive\n", argv[0]);
    return 2;
  }
  if (out_path.empty() && (format == "binary" || !convert_path.empty())) {
    std::fprintf(stderr, "%s: %s requires --out\n", argv[0],
                 convert_path.empty() ? "--format binary" : "--convert");
    return 2;
  }

  try {
    if (!convert_path.empty()) {
      trace::ParseOptions options;
      options.max_malformed = max_malformed;
      const auto source = trace::open_trace_source(convert_path, options);
      const auto sink =
          open_writer(out_path, format, source->catalogue_size(), chunk_records);
      const trace::ParseStats stats = trace::convert_trace(*source, *sink, chunk_records);
      std::fprintf(stderr,
                   "converted %s -> %s (%s): %llu records, %llu malformed line(s) skipped\n",
                   convert_path.c_str(), out_path.c_str(), format.c_str(),
                   static_cast<unsigned long long>(stats.records),
                   static_cast<unsigned long long>(stats.malformed));
      return 0;
    }

    if (stream) {
      // Bounded-memory generation: no full trace ever exists in memory.
      const trace::SyntheticWorkload workload(config);
      const auto source = workload.open();
      const auto sink = open_writer(out_path, format, config.num_objects, chunk_records);
      const trace::ParseStats stats = trace::convert_trace(*source, *sink, chunk_records);
      std::fprintf(stderr, "streamed %llu requests over %zu objects to %s (%s)\n",
                   static_cast<unsigned long long>(stats.records), config.num_objects,
                   out_path.empty() ? "stdout" : out_path.c_str(), format.c_str());
      return 0;
    }

    const trace::Trace tr = trace::generate_trace(config);
    std::fprintf(stderr, "generated %zu requests over %zu objects (%zu distinct requested)\n",
                 tr.size(), tr.catalogue_size, tr.distinct_names());
    const auto sink = open_writer(out_path, format, tr.catalogue_size, chunk_records);
    for (const trace::TraceRecord& record : tr.records) sink->append(record);
    sink->close();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 1;
  }
  return 0;
}
