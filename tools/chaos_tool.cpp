// chaos_tool: run seeded fault-injection fuzz episodes from the CLI.
//
//   chaos_tool [--mode both|chaos|diff] [--episodes N] [--seed S]
//              [--interests N] [--ops N] [--jobs J] [--verbose]
//              [--metrics-out PATH]
//
// "chaos" episodes exercise a random faulty topology end to end and audit
// the structural invariants; "diff" episodes cross-check a single Forwarder
// against the naive reference model op by op (see sim/chaos.hpp). Episodes
// are distributed over --jobs workers through the deterministic sweep
// runner, so results (and every digest) are byte-identical for any J.
//
// Exit status: 0 when every episode is clean, 1 otherwise. A failing
// episode prints the master seed and run index needed to replay it alone.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "runner/runner.hpp"
#include "sim/chaos.hpp"
#include "util/metrics.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--mode both|chaos|diff] [--episodes N] [--seed S]\n"
               "          [--interests N] [--ops N] [--jobs J] [--verbose]\n"
               "          [--metrics-out PATH]\n"
               "\n"
               "  --metrics-out PATH  write the aggregate episode counters as\n"
               "                      canonical metrics JSON to PATH\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ndnp;

  std::string mode = "both";
  std::size_t episodes = 200;
  std::uint64_t master_seed = 1;
  std::size_t interests = 400;
  std::size_t ops = 1500;
  std::size_t jobs = 1;
  bool verbose = false;
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
    if (arg == "--mode")
      mode = next();
    else if (arg == "--episodes")
      episodes = static_cast<std::size_t>(std::atoll(next()));
    else if (arg == "--seed")
      master_seed = static_cast<std::uint64_t>(std::atoll(next()));
    else if (arg == "--interests")
      interests = static_cast<std::size_t>(std::atoll(next()));
    else if (arg == "--ops")
      ops = static_cast<std::size_t>(std::atoll(next()));
    else if (arg == "--jobs")
      jobs = static_cast<std::size_t>(std::atoll(next()));
    else if (arg == "--verbose")
      verbose = true;
    else if (arg == "--metrics-out")
      metrics_out = next();
    else {
      usage(argv[0]);
      return 2;
    }
  }
  if (mode != "both" && mode != "chaos" && mode != "diff") {
    usage(argv[0]);
    return 2;
  }

  runner::SweepOptions sweep;
  sweep.jobs = runner::resolve_jobs(jobs);
  sweep.master_seed = master_seed;

  int failures = 0;
  util::MetricsSnapshot metrics;

  if (mode == "both" || mode == "chaos") {
    const std::vector<sim::ChaosEpisodeResult> results =
        runner::run_sweep<sim::ChaosEpisodeResult>(
            episodes, sweep, [interests](const runner::RunContext& ctx) {
              sim::ChaosEpisodeOptions options;
              options.seed = ctx.seed;
              options.interests = interests;
              return sim::run_chaos_episode(options);
            });
    std::uint64_t digest_chain = 0xcbf29ce484222325ULL;
    std::uint64_t faults_total = 0;
    std::uint64_t violations = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const sim::ChaosEpisodeResult& r = results[i];
      digest_chain = (digest_chain ^ r.digest) * 0x100000001b3ULL;
      faults_total += r.link_faults.total();
      violations += r.invariant_violations;
      if (!r.ok()) {
        ++failures;
        std::fprintf(stderr, "FAIL chaos episode %zu (master_seed=%llu): %s\n", i,
                     static_cast<unsigned long long>(master_seed), r.violation.c_str());
      } else if (verbose) {
        std::fprintf(stderr,
                     "chaos %zu: digest=%016llx forwarders=%zu data=%llu timeouts=%llu "
                     "nacks=%llu faults=%llu wipes=%llu squeezes=%llu events=%llu\n",
                     i, static_cast<unsigned long long>(r.digest), r.forwarders,
                     static_cast<unsigned long long>(r.data_received),
                     static_cast<unsigned long long>(r.timeouts),
                     static_cast<unsigned long long>(r.consumer_nacks),
                     static_cast<unsigned long long>(r.link_faults.total()),
                     static_cast<unsigned long long>(r.node_faults.cs_wipes),
                     static_cast<unsigned long long>(r.node_faults.pit_squeezes),
                     static_cast<unsigned long long>(r.events_processed));
      }
    }
    std::printf("chaos: %zu episodes, %llu faults injected, %llu invariant violations, "
                "digest=%016llx\n",
                results.size(), static_cast<unsigned long long>(faults_total),
                static_cast<unsigned long long>(violations),
                static_cast<unsigned long long>(digest_chain));
    metrics.counters["chaos.episodes"] = results.size();
    metrics.counters["chaos.faults_injected"] = faults_total;
    metrics.counters["chaos.invariant_violations"] = violations;
    metrics.counters["chaos.digest_chain"] = digest_chain;
  }

  if (mode == "both" || mode == "diff") {
    const std::vector<sim::DifferentialResult> results =
        runner::run_sweep<sim::DifferentialResult>(
            episodes, sweep, [ops](const runner::RunContext& ctx) {
              return sim::run_differential_episode(ctx.seed, ops);
            });
    std::size_t total_ops = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const sim::DifferentialResult& r = results[i];
      total_ops += r.ops;
      if (!r.ok()) {
        ++failures;
        std::fprintf(stderr, "FAIL diff episode %zu (master_seed=%llu): %s\n", i,
                     static_cast<unsigned long long>(master_seed),
                     r.first_divergence.c_str());
      }
    }
    std::printf("diff: %zu episodes, %zu ops, %s\n", results.size(), total_ops,
                failures == 0 ? "no divergence" : "DIVERGED");
    metrics.counters["diff.episodes"] = results.size();
    metrics.counters["diff.ops"] = total_ops;
  }

  if (!metrics_out.empty()) {
    metrics.counters["failures"] = static_cast<std::uint64_t>(failures);
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n", metrics_out.c_str());
      return 2;
    }
    out << metrics.to_json() << '\n';
  }

  return failures == 0 ? 0 : 1;
}
