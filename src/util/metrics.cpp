#include "util/metrics.hpp"

#include <cstdio>

namespace ndnp::util {

std::string format_double(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

namespace {

/// JSON string escaping for metric names (which are plain dotted
/// identifiers in practice; this keeps the exporter safe anyway). Quotes
/// and backslashes get a backslash, control characters the \uXXXX form,
/// so the output is always valid JSON.
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void append_histogram_json(std::string& out, const Histogram& hist) {
  out += "{\"lo\":" + format_double(hist.lo()) + ",\"hi\":" + format_double(hist.hi()) +
         ",\"counts\":[";
  for (std::size_t i = 0; i < hist.bins(); ++i) {
    if (i) out += ',';
    out += std::to_string(hist.count(i));
  }
  out += "]}";
}

/// Same-named histograms merge bin-wise; a name new to `into` is copied.
void merge_histograms(std::map<std::string, Histogram>& into,
                      const std::map<std::string, Histogram>& from) {
  for (const auto& [name, hist] : from) {
    const auto [it, fresh] = into.try_emplace(name, hist);
    if (!fresh) it->second.merge(hist);
  }
}

}  // namespace

MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& parts) {
  MetricsSnapshot out;
  for (const MetricsSnapshot& part : parts) {
    for (const auto& [name, value] : part.counters) out.counters[name] += value;
    for (const auto& [name, value] : part.gauges) out.gauges[name] += value;
    merge_histograms(out.histograms, part.histograms);
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + escape(name) + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + escape(name) + "\":" + format_double(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"' + escape(name) + "\":";
    append_histogram_json(out, hist);
  }
  out += "}}";
  return out;
}

}  // namespace ndnp::util
