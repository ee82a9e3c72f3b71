// TimeSeriesRecorder: sim-time-cadenced sampling of gauge probes into a
// bounded ring of rows, exported as CSV or Prometheus text exposition.
//
// Sampling model (docs/OBSERVABILITY.md, "Online telemetry"):
//  * Probes are registered once (name + read-only callback); the probe set
//    is frozen at the first sample so every row has the same columns.
//  * maybe_sample(now) is called from hot paths (forwarder lookups, replay
//    feeds). It emits one row per *crossed* cadence boundary, stamped at
//    the boundary time, reading the probes' current values. When several
//    boundaries pass between consecutive calls only the most recent one
//    gets a row — the rest are counted in missed_boundaries(). This lazy
//    scheme needs no scheduler events, so arming a recorder can never
//    perturb event order (golden vectors stay byte-identical).
//  * The ring keeps the most recent kRingRows rows (flight-recorder
//    style); dropped_rows() counts overwrites.
//
// All output is canonical: times are integer nanoseconds, values print
// with util::format_double (as util::MetricsSnapshot::to_json does), rows
// in time order — byte-identical across --jobs by construction since every
// run records into its own recorder.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/sim_time.hpp"

namespace ndnp::telemetry {

class TimeSeriesRecorder {
 public:
  using Probe = std::function<double()>;

  /// Rows the ring keeps.
  static constexpr std::size_t kRingRows = 4096;

  /// `sample_every` must be positive.
  explicit TimeSeriesRecorder(util::SimDuration sample_every = util::millis(10));

  /// Register (or replace, by name) a gauge probe. Throws once the probe
  /// set is frozen by the first sample.
  void add_probe(std::string name, Probe probe);

  /// Emit a row for the most recent cadence boundary <= now, if any new
  /// boundary has been crossed since the last sample.
  void maybe_sample(util::SimTime now);

  /// Force one row stamped `t` (used for the final flush at end of run).
  void sample_at(util::SimTime t);

  [[nodiscard]] util::SimDuration sample_every() const noexcept { return cadence_; }
  [[nodiscard]] std::size_t probes() const noexcept { return names_.size(); }
  [[nodiscard]] std::size_t rows() const noexcept { return times_.size(); }
  [[nodiscard]] std::uint64_t missed_boundaries() const noexcept { return missed_; }
  [[nodiscard]] std::uint64_t dropped_rows() const noexcept { return dropped_; }

  /// CSV: header "t_ns,<probe>,..." then one row per sample, oldest first.
  [[nodiscard]] std::string to_csv() const;
  /// Prometheus text exposition of the latest sample: one gauge per probe,
  /// names sanitized and prefixed "ndnp_", timestamped in milliseconds.
  [[nodiscard]] std::string to_prometheus() const;
  /// Write to `path`: a ".prom" suffix selects Prometheus exposition,
  /// anything else CSV. Throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  void emit_row(util::SimTime t);

  util::SimDuration cadence_;
  bool frozen_ = false;
  std::int64_t last_boundary_ = 0;  // boundary index of the last emitted row
  std::uint64_t missed_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> names_;
  std::vector<Probe> probes_;
  // Ring of rows: times_[i] with values row-major in values_ (stride =
  // probes()). head_ is the oldest row: 0 until the ring is full, then the
  // next overwrite slot.
  std::vector<util::SimTime> times_;
  std::vector<double> values_;
  std::size_t head_ = 0;
};

}  // namespace ndnp::telemetry
