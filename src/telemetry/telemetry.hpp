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

#include "core/engine.hpp"
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
  /// Time-series sampling cadence (sim time) and ring size.
  util::SimDuration sample_every = util::millis(10);
  std::size_t max_rows = 4096;
  /// Bucket counts for the two detector banks.
  std::size_t face_buckets = 32;
  std::size_t prefix_buckets = 64;
  /// Which detectors each bank may fire (detector_bit masks). The
  /// delayed-hit-ratio detector is face-only by default: it profiles a
  /// *requester* (a face whose cache-served traffic is dominated by the
  /// countermeasure's delays is probing protected content), while a prefix
  /// bucket dominated by one private object reaches the same ratio
  /// legitimately.
  std::uint8_t face_detectors = kAllDetectors;
  std::uint8_t prefix_detectors = static_cast<std::uint8_t>(
      detector_bit(DetectorKind::kHitRateShift) |
      detector_bit(DetectorKind::kArrivalRegularity));
  DetectorTuning tuning;
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

  /// Sample the time series if a cadence boundary has passed (also called
  /// by on_lookup; expose it for callers with quiet phases).
  void maybe_sample(util::SimTime now) { recorder_.maybe_sample(now); }

  /// Register an extra gauge probe on the recorder (CS occupancy, PIT
  /// size, scheduler gauges, ... — the owner wires what it has).
  void add_probe(std::string name, TimeSeriesRecorder::Probe probe);

  [[nodiscard]] TimeSeriesRecorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] const TimeSeriesRecorder& recorder() const noexcept { return recorder_; }
  [[nodiscard]] const DetectorBank& face_bank() const noexcept { return face_bank_; }
  [[nodiscard]] const DetectorBank& prefix_bank() const noexcept { return prefix_bank_; }
  [[nodiscard]] const TelemetryOptions& options() const noexcept { return options_; }
  [[nodiscard]] const std::string& node_label() const noexcept { return node_label_; }

  [[nodiscard]] std::uint64_t lookups() const noexcept { return outcomes_.requests; }
  [[nodiscard]] std::uint64_t alarms_total() const noexcept {
    return face_bank_.alarms_total() + prefix_bank_.alarms_total();
  }
  [[nodiscard]] std::uint64_t alarms(DetectorKind kind) const noexcept {
    return face_bank_.alarms(kind) + prefix_bank_.alarms(kind);
  }

  /// Publish lookup/alarm counters into `snap` under `prefix`
  /// ("<prefix>.lookups", "<prefix>.alarms.<detector>", ...).
  void export_metrics(util::MetricsSnapshot& snap, const std::string& prefix) const;

 private:
  TelemetryOptions options_;
  std::string node_label_;
  TimeSeriesRecorder recorder_;
  DetectorBank face_bank_;
  DetectorBank prefix_bank_;
  EwmaEstimator global_hit_rate_;
  /// Lookups and their outcomes, counted like the engine counts them.
  core::EngineStats outcomes_;
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
