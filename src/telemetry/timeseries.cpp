#include "telemetry/timeseries.hpp"

#include <fstream>
#include <stdexcept>

#include "util/metrics.hpp"

namespace ndnp::telemetry {

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else maps to '_'.
std::string sanitize_prometheus(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(util::SimDuration sample_every)
    : cadence_(sample_every) {
  if (cadence_ <= 0)
    throw std::invalid_argument("TimeSeriesRecorder: sample_every must be positive");
}

void TimeSeriesRecorder::add_probe(std::string name, Probe probe) {
  if (frozen_)
    throw std::logic_error("TimeSeriesRecorder: probe set frozen after first sample");
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      probes_[i] = std::move(probe);
      return;
    }
  }
  names_.push_back(std::move(name));
  probes_.push_back(std::move(probe));
}

void TimeSeriesRecorder::emit_row(util::SimTime t) {
  frozen_ = true;
  const std::size_t stride = probes_.size();
  std::size_t row = times_.size();
  if (row < kRingRows) {
    times_.push_back(t);
    values_.resize(values_.size() + stride);
  } else {
    ++dropped_;
    row = head_;
    head_ = (head_ + 1) % kRingRows;
    times_[row] = t;
  }
  for (std::size_t i = 0; i < stride; ++i)
    values_[row * stride + i] = probes_[i] ? probes_[i]() : 0.0;
}

void TimeSeriesRecorder::maybe_sample(util::SimTime now) {
  if (now < cadence_) return;
  const std::int64_t boundary = now / cadence_;  // boundaries at k * cadence_, k >= 1
  if (boundary <= last_boundary_) return;
  missed_ += static_cast<std::uint64_t>(boundary - last_boundary_ - 1);
  last_boundary_ = boundary;
  emit_row(boundary * cadence_);
}

void TimeSeriesRecorder::sample_at(util::SimTime t) { emit_row(t); }

std::string TimeSeriesRecorder::to_csv() const {
  std::string out = "t_ns";
  for (const std::string& name : names_) out += ',' + name;
  out += '\n';
  const std::size_t stride = probes_.size();
  const std::size_t n = rows();
  // Ring unwrap: oldest row first.
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t i = (head_ + r) % n;
    out += std::to_string(times_[i]);
    for (std::size_t c = 0; c < stride; ++c)
      out += ',' + util::format_double(values_[i * stride + c]);
    out += '\n';
  }
  return out;
}

std::string TimeSeriesRecorder::to_prometheus() const {
  std::string out;
  const std::size_t n = rows();
  if (n == 0) return out;
  const std::size_t last = (head_ + n - 1) % n;
  const std::size_t stride = probes_.size();
  const long long stamp_ms = times_[last] / 1'000'000;
  for (std::size_t c = 0; c < stride; ++c) {
    const std::string metric = "ndnp_" + sanitize_prometheus(names_[c]);
    out += "# HELP " + metric + " sampled gauge " + names_[c] + "\n";
    out += "# TYPE " + metric + " gauge\n";
    out += metric + ' ' + util::format_double(values_[last * stride + c]) + ' ' +
           std::to_string(stamp_ms) + '\n';
  }
  return out;
}

void TimeSeriesRecorder::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("TimeSeriesRecorder: cannot open " + path);
  const bool prometheus =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  out << (prometheus ? to_prometheus() : to_csv());
  if (!out) throw std::runtime_error("TimeSeriesRecorder: write failed for " + path);
}

}  // namespace ndnp::telemetry
