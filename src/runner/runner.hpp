// Deterministic parallel experiment driver.
//
// A *sweep* is N independent runs (seed sweeps, policy/parameter grids),
// each owning its own engine/topology/Scheduler and its own RNG stream.
// Runs are fanned across a std::thread pool; determinism is guaranteed by
// construction:
//
//  1. Run i's seed is `run_seed(master_seed, i)` — a pure function of
//     (master_seed, run_index), independent of thread count, scheduling
//     order, and completion order (closed-form SplitMix64: the i-th draw of
//     SplitMix64(master_seed), computed by random access).
//  2. A run never touches shared mutable state; its result lands in slot i
//     of a pre-sized vector.
//  3. Results are merged in run-index order after all threads join.
//
// Consequently the merged output is byte-identical for any --jobs value
// (verified by tests/test_runner.cpp). Wall-clock timing is reported out of
// band and never feeds the merged results.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/tracing.hpp"

namespace ndnp::runner {

/// Derive the RNG seed of run `run_index` under `master_seed`: the
/// (run_index + 1)-th output of SplitMix64(master_seed), computed in O(1)
/// (SplitMix64's state advances by a fixed gamma per step, so the i-th
/// state is master_seed + gamma * (i + 1)). Distinct run indices give
/// distinct, well-mixed seeds; feeding them to Xoshiro256 yields
/// effectively independent streams (tests assert no collisions across
/// 10k draws per stream).
[[nodiscard]] std::uint64_t run_seed(std::uint64_t master_seed, std::size_t run_index) noexcept;

/// Identity of one run inside a sweep, handed to the run function.
struct RunContext {
  std::size_t run_index = 0;
  std::size_t num_runs = 0;
  std::uint64_t master_seed = 0;
  /// run_seed(master_seed, run_index), precomputed.
  std::uint64_t seed = 0;
};

/// Per-run flight-recorder capture for a sweep (--trace-out plumbing).
///
/// Each run gets its own util::Tracer, bound to that run's worker thread
/// for the duration of the run — tracers are single-threaded, runs are
/// independent, and the tracer only observes, so captures cannot perturb
/// the sweep's deterministic results (golden tests enforce this).
struct SweepTraceCapture {
  /// Output path; ".jsonl" selects the JSONL exporter, anything else the
  /// Chrome trace-event format. Multi-run sweeps write one file per run
  /// with ".runN" spliced in before the extension. Empty = capture in
  /// memory only (inspect via `runs` after the sweep).
  std::string out_path;
  /// Name-prefix filter forwarded to every run's tracer (--trace-filter).
  std::string filter;
  /// Ring capacity of every run's tracer and of single-run captures.
  static constexpr std::size_t kRingCapacity = 1u << 20;
  /// One tracer per run, in run-index order; populated by prepare().
  std::vector<std::unique_ptr<util::Tracer>> runs;

  /// Allocate a tracer per run. Called by run_sweep; idempotent for a
  /// given run count.
  void prepare(std::size_t num_runs);
  [[nodiscard]] util::Tracer* run_tracer(std::size_t run_index) noexcept {
    return run_index < runs.size() ? runs[run_index].get() : nullptr;
  }
  /// Path run `run_index`'s capture is written to (out_path, with ".runN"
  /// spliced in when the sweep has several runs).
  [[nodiscard]] std::string run_path(std::size_t run_index) const;
  /// Export every run's capture (no-op when out_path is empty).
  void write_files() const;
};

struct SweepOptions {
  /// Worker threads; 0 and 1 both mean "run inline on the calling thread".
  std::size_t jobs = 1;
  std::uint64_t master_seed = 1;
  /// When set, every run records into its own tracer and captures are
  /// exported after the sweep. Not owned; must outlive the sweep call.
  SweepTraceCapture* capture = nullptr;
  /// When set, every run samples into its own telemetry hub and the time
  /// series are exported after the sweep (--telemetry-out plumbing). Same
  /// ownership and determinism contract as `capture`: per-run hubs mean
  /// the exported series are byte-identical for any --jobs value. The run
  /// function wires its run's hub via `telemetry->run_hub(ctx.run_index)`.
  telemetry::SweepTelemetryCapture* telemetry = nullptr;
};

/// Clamp a user-supplied --jobs value: 0 -> hardware_concurrency.
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested) noexcept;

namespace detail {

/// Run `body(i)` for i in [0, num_tasks) across `jobs` threads. Work is
/// claimed from an atomic cursor, so assignment of index to thread is
/// nondeterministic — bodies must only write state owned by index i.
/// The first exception thrown by any body is rethrown on the caller.
void parallel_for(std::size_t num_tasks, std::size_t jobs,
                  const std::function<void(std::size_t)>& body);

}  // namespace detail

/// Execute `fn(ctx)` for each of `num_runs` runs and return the results in
/// run-index order. R is any movable result type.
template <typename R, typename Fn>
std::vector<R> run_sweep(std::size_t num_runs, const SweepOptions& options, Fn&& fn) {
  std::vector<R> results(num_runs);
  if (options.capture != nullptr) options.capture->prepare(num_runs);
  if (options.telemetry != nullptr) options.telemetry->prepare(num_runs);
  detail::parallel_for(num_runs, options.jobs, [&](std::size_t i) {
    RunContext ctx;
    ctx.run_index = i;
    ctx.num_runs = num_runs;
    ctx.master_seed = options.master_seed;
    ctx.seed = run_seed(options.master_seed, i);
    if (options.capture != nullptr) {
      // Bind this run's tracer to the worker for the run's duration; any
      // binding active on the calling thread is restored afterwards (the
      // jobs<=1 path runs inline).
      util::TracerBinding binding(options.capture->run_tracer(i));
      results[i] = fn(ctx);
    } else {
      results[i] = fn(ctx);
    }
  });
  if (options.capture != nullptr) options.capture->write_files();
  if (options.telemetry != nullptr) options.telemetry->write_files();
  return results;
}

}  // namespace ndnp::runner
