// TelemetryHub: the online observability layer, one hub per run.
//
// A hub owns a TimeSeriesRecorder (timeseries.hpp) plus two DetectorBanks
// (detectors.hpp) — one keyed by arrival face, one by content-prefix hash
// bucket — and exposes a single hot-path entry point, on_lookup(), that
//  1. folds the outcome into both banks,
//  2. emits a telemetry_alarm trace event for every detector that fires
//     (through NDNP_TRACE_EVENT, so captures join alarms against attack
//     ground truth; tools/telemetry_tool scores the join), and
//  3. lazily samples the time series at the configured sim-time cadence.
//
// Like the flight recorder, the hub only observes: no RNG draws, no
// scheduled events, no feedback into the simulation — arming telemetry
// never moves golden vectors, and the detector time series is
// byte-identical for any --jobs because every run records into its own hub
// (SweepTelemetryCapture mirrors runner::SweepTraceCapture).
//
// The forwarder and the replayer feed a hub through note_lookup(), once per
// decided lookup; with no hub armed the hook is one null check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "ndn/name.hpp"
#include "telemetry/detectors.hpp"
#include "telemetry/timeseries.hpp"
#include "util/sim_time.hpp"

#define NDNP_TELEMETRY 1  // read only by the bench/e2e host record

namespace ndnp::util {
struct MetricsSnapshot;
}

namespace ndnp::telemetry {

struct TelemetryOptions {
  /// Time-series sampling cadence (sim time).
  util::SimDuration sample_every = util::millis(10);
};

class TelemetryHub {
 public:
  explicit TelemetryHub(const TelemetryOptions& options = {},
                        std::string node_label = "telemetry");

  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  /// Hot path: fold one lookup outcome into the face and prefix banks and
  /// lazily sample the time series. Fired alarms become telemetry_alarm
  /// trace events on the currently bound tracer (detail carries detector,
  /// scope, bucket and the decision statistic).
  void on_lookup(std::uint64_t face_key, std::uint64_t prefix_hash,
                 core::LookupOutcome outcome, util::SimTime now);

  /// The time series; owners register extra gauge probes on it (CS
  /// occupancy, PIT size, ... — whatever they have) before the first sample.
  [[nodiscard]] TimeSeriesRecorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] const TimeSeriesRecorder& recorder() const noexcept { return recorder_; }

  /// Lookups folded in so far (each one is observed once by the face bank).
  [[nodiscard]] std::uint64_t lookups() const noexcept { return face_bank_.observations(); }
  [[nodiscard]] std::uint64_t alarms_total() const noexcept {
    return face_bank_.alarms_total() + prefix_bank_.alarms_total();
  }
  [[nodiscard]] std::uint64_t alarms(DetectorKind kind) const noexcept {
    return face_bank_.alarms(kind) + prefix_bank_.alarms(kind);
  }

  /// Publish lookup/alarm counters into `snap` under `prefix`
  /// ("<prefix>.lookups", "<prefix>.alarms.<detector>", ...). The outcome
  /// counts are the engine's own export, not repeated here.
  void export_metrics(util::MetricsSnapshot& snap, const std::string& prefix) const;

 private:
  std::string node_label_;
  TimeSeriesRecorder recorder_;
  DetectorBank face_bank_{BankScope::kFace};
  DetectorBank prefix_bank_{BankScope::kPrefix};
  EwmaEstimator global_hit_rate_;
};

/// The hot-path hook: feed one decided lookup of `name` into `hub` (no-op
/// when null). The face scope is `face_key` (arrival face or trace user);
/// the prefix scope is the hash of the name's depth-2 prefix, or of the
/// whole name when it is shorter.
inline void note_lookup(TelemetryHub* hub, std::uint64_t face_key, const ndn::Name& name,
                        core::LookupOutcome outcome, util::SimTime now) {
  if (hub == nullptr) return;
  std::uint64_t depth2 = 0;
  std::uint64_t last = 0;
  std::size_t depth = 0;
  name.visit_prefix_hashes([&](std::uint64_t h) {
    if (depth == 2) depth2 = h;
    last = h;
    ++depth;
  });
  hub->on_lookup(face_key, depth > 2 ? depth2 : last, outcome, now);
}

/// Per-run telemetry capture for a sweep (--telemetry-out plumbing); the
/// telemetry twin of runner::SweepTraceCapture. Each run samples into its
/// own hub; files are written after the sweep in run-index order, so the
/// exported detector time series is byte-identical for any --jobs value.
struct SweepTelemetryCapture {
  /// Output path; a ".prom" suffix selects Prometheus text exposition,
  /// anything else CSV. Multi-run sweeps splice ".runN" before the
  /// extension. Empty = capture in memory only (inspect via `runs`).
  std::string out_path;
  TelemetryOptions options;
  /// One hub per run, in run-index order; populated by prepare().
  std::vector<std::unique_ptr<TelemetryHub>> runs;

  /// Allocate a hub per run. Idempotent for a given run count.
  void prepare(std::size_t num_runs);
  [[nodiscard]] TelemetryHub* run_hub(std::size_t run_index) noexcept {
    return run_index < runs.size() ? runs[run_index].get() : nullptr;
  }
  /// Path run `run_index`'s series is written to (".runN" spliced in when
  /// the sweep has several runs).
  [[nodiscard]] std::string run_path(std::size_t run_index) const;
  /// Export every run's time series (no-op when out_path is empty).
  void write_files() const;
};

}  // namespace ndnp::telemetry
