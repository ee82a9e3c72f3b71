// Metrics snapshot: named counters, gauges and fixed-bin histograms.
//
// Components (ContentStore, Forwarder, the CM policies, the replay engine)
// export their counters straight into a per-run `MetricsSnapshot` under a
// dotted naming scheme (`<component>.<counter>`, e.g. "cs.evictions",
// "engine.exposed_hits"; see docs/RUNNER.md). Every export hook adds
// (`snap.counters[name] += value`), so two exports under one prefix sum.
// Snapshots from a seed/parameter sweep are aggregated across runs
// (mean/stddev/min/max via Welford, exact percentiles via SampleSet) and
// exported as JSON for the bench harness.
//
// A snapshot is a plain value with no synchronization: each run fills its
// own, and per-worker snapshots are combined with merge_snapshots after the
// writers are done.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace ndnp::util {

/// Round-trip-exact (17 significant digits), locale-independent double
/// formatting: the one number format of the canonical exports (the JSON
/// here and the telemetry time-series CSV/Prometheus text).
[[nodiscard]] std::string format_double(double x);

/// One run's metrics, plus free-form derived gauges (doubles like hit rates
/// that runs compute from counters). All maps are ordered so serialization
/// is canonical: equal snapshots produce byte-identical JSON.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;

  /// Canonical JSON. Doubles go through format_double, keys in
  /// lexicographic order — deterministic byte-for-byte.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] bool operator==(const MetricsSnapshot& other) const = default;
};

/// Old name, kept only because bench/e2e/bench_e2e.cpp's TimedPolicy still spells it.
using MetricsRegistry = MetricsSnapshot;

/// Element-wise union of per-shard snapshots (the sharded replayer's merge
/// step): counters are summed, same-named histograms merged bin-wise, and
/// gauges summed. Non-additive gauges (rates, means) must be recomputed
/// from the merged counters by the caller — summing them is only the right
/// default for additive totals. Parts are folded in vector order over
/// ordered maps, so the result is deterministic and independent of how the
/// parts were produced. Throws std::invalid_argument when two same-named
/// histograms differ in shape.
[[nodiscard]] MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& parts);

/// Cross-run aggregate of one metric: count/mean/stddev/min/max (Welford)
/// plus exact percentiles (SampleSet keeps every per-run value; sweeps are
/// at most thousands of runs, so this is cheap).
struct MetricAggregate {
  Welford stats;
  SampleSet samples;

  void add(double x);
  [[nodiscard]] double percentile(double q) const { return samples.quantile(q); }
};

/// Aggregate of a whole sweep: every counter and gauge name seen in any run
/// maps to its across-run statistics (runs missing a name contribute 0 for
/// counters and are skipped for gauges); same-named histograms are merged
/// bin-wise.
struct SweepAggregate {
  std::size_t runs = 0;
  std::map<std::string, MetricAggregate> counters;
  std::map<std::string, MetricAggregate> gauges;
  std::map<std::string, Histogram> histograms;

  [[nodiscard]] static SweepAggregate from_runs(const std::vector<MetricsSnapshot>& runs);

  /// Canonical JSON (same determinism guarantees as MetricsSnapshot).
  [[nodiscard]] std::string to_json() const;
};

}  // namespace ndnp::util
