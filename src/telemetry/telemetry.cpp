#include "telemetry/telemetry.hpp"

#include <cstdio>

#include "util/metrics.hpp"
#include "util/run_path.hpp"
#include "util/tracing.hpp"

namespace ndnp::telemetry {

TelemetryHub::TelemetryHub(const TelemetryOptions& options, std::string node_label)
    : node_label_(std::move(node_label)), recorder_(options.sample_every) {
  // Built-in detector time series; owners layer their gauges (CS/PIT
  // occupancy, scheduler depth, ...) on top via recorder().add_probe before
  // the first sample freezes the column set.
  recorder_.add_probe("telemetry.lookups", [this] { return static_cast<double>(lookups()); });
  recorder_.add_probe("telemetry.hit_rate_ewma", [this] { return global_hit_rate_.value; });
  for (std::size_t k = 0; k < kDetectorKinds; ++k) {
    const auto kind = static_cast<DetectorKind>(k);
    recorder_.add_probe("telemetry.alarms." + std::string(to_string(kind)),
                        [this, kind] { return static_cast<double>(alarms(kind)); });
  }
  recorder_.add_probe("telemetry.face_cusum_max",
                      [this] { return face_bank_.max_cusum_statistic(); });
  recorder_.add_probe("telemetry.prefix_cusum_max",
                      [this] { return prefix_bank_.max_cusum_statistic(); });
}

void TelemetryHub::on_lookup(std::uint64_t face_key, std::uint64_t prefix_hash,
                             core::LookupOutcome outcome, util::SimTime now) {
  global_hit_rate_.observe(outcome == core::LookupOutcome::kExposedHit ? 1.0 : 0.0);

  AlarmEvent fired[kDetectorKinds];
  const auto emit = [&](const char* scope, const DetectorBank& bank, std::uint64_t key,
                        std::int64_t face, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      char detail[128];
      std::snprintf(detail, sizeof detail, "detector=%s scope=%s bucket=%zu stat=%.4f",
                    std::string(to_string(fired[i].kind)).c_str(), scope, bank.bucket_of(key),
                    fired[i].statistic);
      NDNP_TRACE_EVENT(util::TraceEventType::kTelemetryAlarm, node_label_, now, std::string(),
                       std::string(detail), face, static_cast<std::int64_t>(fired[i].kind),
                       static_cast<std::int64_t>(bank.bucket_of(key)));
    }
  };

  emit("face", face_bank_, face_key, static_cast<std::int64_t>(face_key),
       face_bank_.observe(face_key, outcome, now, fired));
  emit("prefix", prefix_bank_, prefix_hash, -1,
       prefix_bank_.observe(prefix_hash, outcome, now, fired));

  recorder_.maybe_sample(now);
}

void TelemetryHub::export_metrics(util::MetricsSnapshot& snap,
                                  const std::string& prefix) const {
  snap.counters[prefix + ".lookups"] += lookups();
  for (std::size_t k = 0; k < kDetectorKinds; ++k) {
    const auto kind = static_cast<DetectorKind>(k);
    snap.counters[prefix + ".alarms." + std::string(to_string(kind))] += alarms(kind);
  }
  snap.counters[prefix + ".samples"] += recorder_.rows();
  snap.counters[prefix + ".missed_boundaries"] += recorder_.missed_boundaries();
}

void SweepTelemetryCapture::prepare(std::size_t num_runs) {
  if (runs.size() == num_runs) return;
  runs.clear();
  runs.reserve(num_runs);
  for (std::size_t i = 0; i < num_runs; ++i)
    runs.push_back(std::make_unique<TelemetryHub>(options));
}

std::string SweepTelemetryCapture::run_path(std::size_t run_index) const {
  return util::run_path(out_path, run_index, runs.size());
}

void SweepTelemetryCapture::write_files() const {
  if (out_path.empty()) return;
  for (std::size_t i = 0; i < runs.size(); ++i)
    runs[i]->recorder().write_file(run_path(i));
}

}  // namespace ndnp::telemetry
