#include "sim/trace_sinks.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ndnp::sim {

namespace {

/// JSON string escaping: quotes, backslashes and control characters (the
/// latter as \u00XX so every emitted line is strict JSON).
void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

[[nodiscard]] std::string json_string(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_json_escaped(out, s);
  out += '"';
  return out;
}

/// Simulation nanoseconds -> Chrome trace microseconds ("%.3f" keeps full
/// nanosecond precision in the decimals).
[[nodiscard]] std::string micros_str(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

}  // namespace

std::vector<FlatEvent> flatten(const util::Tracer& tracer) {
  std::vector<FlatEvent> out;
  const std::vector<util::TraceEvent> events = tracer.events();
  out.reserve(events.size());
  for (const util::TraceEvent& ev : events) {
    FlatEvent flat;
    flat.t = ev.time;
    flat.type = std::string(to_string(ev.type));
    flat.node = tracer.label(ev.node);
    flat.comp = tracer.label(ev.comp);
    flat.name = ev.name;
    flat.detail = ev.detail;
    flat.face = ev.face;
    flat.a = ev.a;
    flat.b = ev.b;
    out.push_back(std::move(flat));
  }
  return out;
}

std::string detail_field(const std::string& detail, const std::string& key) {
  const std::string token = key + "=";
  std::size_t pos = 0;
  while (pos < detail.size()) {
    // Only match at the start of the string or after a separating space.
    const std::size_t found = detail.find(token, pos);
    if (found == std::string::npos) return {};
    if (found == 0 || detail[found - 1] == ' ') {
      const std::size_t start = found + token.size();
      const std::size_t end = detail.find(' ', start);
      return detail.substr(start, end == std::string::npos ? std::string::npos : end - start);
    }
    pos = found + 1;
  }
  return {};
}

void write_trace_jsonl(const std::vector<FlatEvent>& events, std::ostream& out) {
  std::string line;
  for (const FlatEvent& ev : events) {
    line.clear();
    line += "{\"t\":";
    line += std::to_string(ev.t);
    line += ",\"type\":";
    line += json_string(ev.type);
    line += ",\"node\":";
    line += json_string(ev.node);
    line += ",\"comp\":";
    line += json_string(ev.comp);
    line += ",\"face\":";
    line += std::to_string(ev.face);
    line += ",\"name\":";
    line += json_string(ev.name);
    line += ",\"detail\":";
    line += json_string(ev.detail);
    line += ",\"a\":";
    line += std::to_string(ev.a);
    line += ",\"b\":";
    line += std::to_string(ev.b);
    line += "}\n";
    out << line;
  }
}

void write_chrome_trace(const std::vector<FlatEvent>& events, std::ostream& out) {
  // pid/tid by first appearance; Perfetto shows them sorted by the "M"
  // metadata names, so ids only need to be stable, not meaningful.
  std::map<std::string, int> pids;
  std::map<std::pair<int, std::string>, int> tids;
  const auto pid_of = [&pids](const std::string& node) {
    const auto [it, inserted] = pids.emplace(node, static_cast<int>(pids.size()) + 1);
    (void)inserted;
    return it->second;
  };
  const auto tid_of = [&tids](int pid, const std::string& comp) {
    const auto [it, inserted] =
        tids.emplace(std::pair{pid, comp}, static_cast<int>(tids.size()) + 1);
    (void)inserted;
    return it->second;
  };

  // First pass assigns ids in event order (deterministic).
  for (const FlatEvent& ev : events) tid_of(pid_of(ev.node), ev.comp);

  out << "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&out, &first](const std::string& obj) {
    if (!first) out << ",";
    out << "\n" << obj;
    first = false;
  };

  for (const auto& [node, pid] : pids) {
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":0,\"args\":{\"name\":" + json_string(node) + "}}");
  }
  for (const auto& [key, tid] : tids) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" + std::to_string(key.first) +
         ",\"tid\":" + std::to_string(tid) +
         ",\"args\":{\"name\":" + json_string(key.second) + "}}");
  }

  for (const FlatEvent& ev : events) {
    const int pid = pid_of(ev.node);
    const int tid = tid_of(pid, ev.comp);
    std::string obj = "{\"name\":";
    if (ev.type == "span") {
      // Wall-clock profiling span: sim-time anchored, wall-clock sized.
      obj += json_string(ev.name);
      obj += ",\"ph\":\"X\",\"ts\":";
      obj += micros_str(ev.t);
      obj += ",\"dur\":";
      obj += micros_str(ev.a);
    } else {
      obj += json_string(ev.name.empty() ? ev.type : ev.type + " " + ev.name);
      obj += ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      obj += micros_str(ev.t);
    }
    obj += ",\"pid\":";
    obj += std::to_string(pid);
    obj += ",\"tid\":";
    obj += std::to_string(tid);
    obj += ",\"args\":{\"type\":";
    obj += json_string(ev.type);
    obj += ",\"name\":";
    obj += json_string(ev.name);
    obj += ",\"detail\":";
    obj += json_string(ev.detail);
    obj += ",\"face\":";
    obj += std::to_string(ev.face);
    obj += ",\"a\":";
    obj += std::to_string(ev.a);
    obj += ",\"b\":";
    obj += std::to_string(ev.b);
    obj += "}}";
    emit(obj);
  }
  out << "\n]}\n";
}

void write_trace_file(const util::Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_trace_file: cannot open " + path);
  const std::vector<FlatEvent> events = flatten(tracer);
  const bool jsonl = path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
  if (jsonl)
    write_trace_jsonl(events, out);
  else
    write_chrome_trace(events, out);
  out.flush();
  if (!out) throw std::runtime_error("write_trace_file: write failed for " + path);
}

// ---------------------------------------------------------------------------
// JSONL parsing (the exact flat schema write_trace_jsonl emits).

namespace {

struct Cursor {
  const std::string& line;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("parse_trace_jsonl: " + what + " at column " +
                             std::to_string(pos) + " in: " + line);
  }
  void skip_ws() {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  }
  [[nodiscard]] char peek() const { return pos < line.size() ? line[pos] : '\0'; }
  void expect(char c) {
    skip_ws();
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }
  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < line.size() && line[pos] != '"') {
      char c = line[pos++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= line.size()) fail("dangling escape");
      const char esc = line[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > line.size()) fail("truncated \\u escape");
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = line[pos++];
            value <<= 4;
            if (h >= '0' && h <= '9')
              value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              value |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          if (value < 0x80) {
            out += static_cast<char>(value);
          } else {  // 2-byte UTF-8 covers everything we ever emit
            out += static_cast<char>(0xC0 | (value >> 6));
            out += static_cast<char>(0x80 | (value & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
    if (pos >= line.size()) fail("unterminated string");
    ++pos;  // closing quote
    return out;
  }
  [[nodiscard]] std::int64_t parse_int() {
    skip_ws();
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') ++pos;
    if (pos == start || (pos == start + 1 && line[start] == '-')) fail("expected integer");
    return std::stoll(line.substr(start, pos - start));
  }
};

}  // namespace

std::vector<FlatEvent> parse_trace_jsonl(std::istream& in) {
  std::vector<FlatEvent> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Cursor cur{line};
    cur.expect('{');
    FlatEvent ev;
    cur.skip_ws();
    if (cur.peek() != '}') {
      while (true) {
        const std::string key = cur.parse_string();
        cur.expect(':');
        cur.skip_ws();
        if (key == "t")
          ev.t = cur.parse_int();
        else if (key == "type")
          ev.type = cur.parse_string();
        else if (key == "node")
          ev.node = cur.parse_string();
        else if (key == "comp")
          ev.comp = cur.parse_string();
        else if (key == "name")
          ev.name = cur.parse_string();
        else if (key == "detail")
          ev.detail = cur.parse_string();
        else if (key == "face")
          ev.face = cur.parse_int();
        else if (key == "a")
          ev.a = cur.parse_int();
        else if (key == "b")
          ev.b = cur.parse_int();
        else if (cur.peek() == '"')  // unknown key: skip its value
          (void)cur.parse_string();
        else
          (void)cur.parse_int();
        cur.skip_ws();
        if (cur.peek() == ',') {
          ++cur.pos;
          continue;
        }
        break;
      }
    }
    cur.expect('}');
    out.push_back(std::move(ev));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Attack forensics.

ForensicsReport probe_forensics(const std::vector<FlatEvent>& events) {
  // Per-name indexes over the two ground-truth streams. Events arrive in
  // recording order, so each bucket is already sorted by time.
  std::map<std::string, std::vector<const FlatEvent*>> lookups;
  std::map<std::string, std::vector<const FlatEvent*>> decisions;
  // Fault attribution: link faults are keyed by the packet name they hit;
  // node faults (empty name: CS wipe, PIT squeeze) affect every name.
  std::map<std::string, std::vector<const FlatEvent*>> faults;
  std::vector<const FlatEvent*> node_faults;
  std::size_t fault_events = 0;
  for (const FlatEvent& ev : events) {
    if (ev.type == "cs_lookup") {
      lookups[ev.name].push_back(&ev);
    } else if (ev.type == "policy_decision") {
      decisions[ev.name].push_back(&ev);
    } else if (ev.type == "fault_inject") {
      ++fault_events;
      (ev.name.empty() ? node_faults : faults[ev.name]).push_back(&ev);
    }
  }

  const auto first_at_or_after = [](const std::vector<const FlatEvent*>& bucket,
                                    util::SimTime when) {
    return std::lower_bound(bucket.begin(), bucket.end(), when,
                            [](const FlatEvent* ev, util::SimTime t) { return ev->t < t; });
  };

  ForensicsReport report;
  report.fault_events = fault_events;

  const auto attribute_faults = [&](ProbeForensics& probe, util::SimTime window_start) {
    std::vector<std::string> causes;
    const auto scan = [&](const std::vector<const FlatEvent*>& bucket) {
      for (auto it = first_at_or_after(bucket, window_start);
           it != bucket.end() && (*it)->t <= probe.probe_time; ++it) {
        ++probe.faults;
        std::string cause = detail_field((*it)->detail, "cause");
        if (cause.empty()) cause = detail_field((*it)->detail, "fault");
        if (!cause.empty() &&
            std::find(causes.begin(), causes.end(), cause) == causes.end())
          causes.push_back(cause);
      }
    };
    if (const auto fit = faults.find(probe.name); fit != faults.end()) scan(fit->second);
    scan(node_faults);
    for (const std::string& cause : causes) {
      if (!probe.fault_causes.empty()) probe.fault_causes += ',';
      probe.fault_causes += cause;
    }
  };

  for (const FlatEvent& ev : events) {
    if (ev.type != "attack_probe") continue;
    ProbeForensics probe;
    probe.probe_time = ev.t;
    probe.name = ev.name;
    probe.truth = detail_field(ev.detail, "truth");
    probe.rtt = ev.a;
    probe.round = ev.b;

    // The probe completed at ev.t after a measured RTT of ev.a ns: the
    // cache lookup it triggered lies inside [t - rtt, t]. The first one in
    // the window is the first-hop router's — the one whose answer shaped
    // the RTT the adversary measured.
    const auto lit = lookups.find(ev.name);
    const FlatEvent* lookup = nullptr;
    if (lit != lookups.end()) {
      const auto it = first_at_or_after(lit->second, ev.t - ev.a);
      if (it != lit->second.end() && (*it)->t <= ev.t) lookup = *it;
    }

    if (lookup != nullptr) {
      probe.decided_by = lookup->node;
      probe.verdict = core::LookupOutcome::kTrueMiss;
    }
    if (lookup != nullptr && detail_field(lookup->detail, "result") == "hit") {
      // Cached: the policy decision at the same router tells us what the
      // adversary was actually shown.
      probe.verdict = core::LookupOutcome::kExposedHit;
      const auto dit = decisions.find(ev.name);
      if (dit != decisions.end()) {
        const auto it = first_at_or_after(dit->second, lookup->t);
        if (it != dit->second.end() && (*it)->t <= ev.t && (*it)->node == lookup->node) {
          const std::string action = detail_field((*it)->detail, "action");
          for (const core::LookupOutcome outcome : core::kLookupOutcomes)
            if (action == core::to_string(outcome)) probe.verdict = outcome;
        }
      }
    }

    probe.agrees = probe.verdict.has_value() && !probe.truth.empty() &&
                   (probe.truth == "hit") == (*probe.verdict != core::LookupOutcome::kTrueMiss);

    if (probe.verdict)
      ++report.verdicts.count(*probe.verdict);
    else
      ++report.unknown;
    if (probe.agrees) ++report.agreements;
    attribute_faults(probe, ev.t - ev.a);
    if (probe.faults > 0) ++report.faulted_probes;
    report.probes.push_back(std::move(probe));
  }
  return report;
}

std::string ForensicsReport::format_table() const {
  // The faults column (and the fault summary fields) appear only when the
  // capture holds fault_inject events — clean-run output is unchanged.
  const bool with_faults = fault_events > 0;
  std::ostringstream out;
  out << "round  t_ms        rtt_ms   truth  verdict        by      agree";
  if (with_faults) out << "  faults";
  out << "  name\n";
  char row[320];
  for (const ProbeForensics& probe : probes) {
    const std::string verdict =
        probe.verdict ? std::string(core::to_string(*probe.verdict)) : "Unknown";
    std::snprintf(row, sizeof row, "%-6lld %-11.3f %-8.3f %-6s %-14s %-7s %-6s",
                  static_cast<long long>(probe.round),
                  static_cast<double>(probe.probe_time) / 1e6,
                  static_cast<double>(probe.rtt) / 1e6, probe.truth.c_str(),
                  verdict.c_str(), probe.decided_by.c_str(),
                  probe.agrees ? "yes" : "no");
    out << row;
    if (with_faults) {
      const std::string cell =
          probe.faults == 0
              ? std::string("-")
              : std::to_string(probe.faults) +
                    (probe.fault_causes.empty() ? "" : ":" + probe.fault_causes);
      std::snprintf(row, sizeof row, " %-7s", cell.c_str());
      out << row;
    }
    out << ' ' << probe.name << '\n';
  }
  char summary[320];
  std::snprintf(summary, sizeof summary,
                "probes=%zu exposed_hit=%llu delayed_hit=%llu simulated_miss=%llu "
                "true_miss=%llu unknown=%zu agreement=%.4f",
                probes.size(), static_cast<unsigned long long>(verdicts.exposed_hits),
                static_cast<unsigned long long>(verdicts.delayed_hits),
                static_cast<unsigned long long>(verdicts.simulated_misses),
                static_cast<unsigned long long>(verdicts.true_misses), unknown,
                agreement_rate());
  out << summary;
  if (with_faults) {
    std::snprintf(summary, sizeof summary, " fault_events=%zu faulted_probes=%zu",
                  fault_events, faulted_probes);
    out << summary;
  }
  out << '\n';
  return out.str();
}

TelemetryScorecard telemetry_scorecard(const std::vector<FlatEvent>& events,
                                       util::SimDuration width) {
  if (width <= 0)
    throw std::invalid_argument("telemetry_scorecard: window width must be positive");

  TelemetryScorecard card;
  card.window = width;
  const std::size_t kinds = telemetry::kDetectorKinds;
  card.detectors.resize(kinds + 1);
  for (std::size_t k = 0; k < kinds; ++k)
    card.detectors[k].detector =
        std::string(telemetry::to_string(static_cast<telemetry::DetectorKind>(k)));
  card.detectors[kinds].detector = "any";
  if (events.empty()) return card;

  util::SimTime t_max = 0;
  for (const FlatEvent& ev : events) t_max = std::max(t_max, ev.t);
  card.total_windows = static_cast<std::size_t>(t_max / width) + 1;
  const auto window_of = [width](util::SimTime t) {
    return static_cast<std::size_t>(t / width);
  };

  // Pass 1: window occupancy. attack[w] = probe activity; alarmed[k][w] per
  // detector, slot `kinds` = any detector.
  std::vector<char> attack(card.total_windows, 0);
  std::vector<std::vector<char>> alarmed(kinds + 1,
                                         std::vector<char>(card.total_windows, 0));
  util::SimTime first_probe = util::kTimeUnset;
  std::vector<util::SimTime> first_alarm_after(kinds + 1, util::kTimeUnset);
  for (const FlatEvent& ev : events) {
    if (ev.type == "attack_probe") {
      ++card.probes;
      attack[window_of(ev.t)] = 1;
      if (first_probe == util::kTimeUnset) first_probe = ev.t;
    }
  }
  for (const FlatEvent& ev : events) {
    if (ev.type != "telemetry_alarm") continue;
    ++card.alarms;
    const std::string name = detail_field(ev.detail, "detector");
    std::size_t kind = kinds;  // unknown detector names only count as "any"
    for (std::size_t k = 0; k < kinds; ++k)
      if (name == card.detectors[k].detector) kind = k;
    const std::size_t w = window_of(ev.t);
    if (kind < kinds) {
      ++card.detectors[kind].alarms;
      alarmed[kind][w] = 1;
      if (first_probe != util::kTimeUnset && ev.t >= first_probe &&
          first_alarm_after[kind] == util::kTimeUnset)
        first_alarm_after[kind] = ev.t;
    }
    ++card.detectors[kinds].alarms;
    alarmed[kinds][w] = 1;
    if (first_probe != util::kTimeUnset && ev.t >= first_probe &&
        first_alarm_after[kinds] == util::kTimeUnset)
      first_alarm_after[kinds] = ev.t;
  }

  for (std::size_t w = 0; w < card.total_windows; ++w)
    if (attack[w]) ++card.attack_windows;

  // Pass 2: per-detector precision/recall over windows.
  for (std::size_t k = 0; k <= kinds; ++k) {
    DetectorScore& score = card.detectors[k];
    for (std::size_t w = 0; w < card.total_windows; ++w) {
      if (!alarmed[k][w]) continue;
      ++score.alarmed_windows;
      if (attack[w])
        ++score.true_positive_windows;
      else
        ++score.false_positive_windows;
    }
    score.precision = score.alarmed_windows == 0
                          ? 1.0
                          : static_cast<double>(score.true_positive_windows) /
                                static_cast<double>(score.alarmed_windows);
    score.recall = card.attack_windows == 0
                       ? 0.0
                       : static_cast<double>(score.true_positive_windows) /
                             static_cast<double>(card.attack_windows);
    if (first_alarm_after[k] != util::kTimeUnset)
      score.detection_latency_ms = util::to_millis(first_alarm_after[k] - first_probe);
  }
  return card;
}

std::string TelemetryScorecard::format_table() const {
  std::ostringstream out;
  out << "detector            alarms  windows  tp      fp      precision  recall  latency_ms\n";
  char row[200];
  for (const DetectorScore& score : detectors) {
    std::snprintf(row, sizeof row, "%-19s %-7zu %-8zu %-7zu %-7zu %-10.4f %-7.4f ",
                  score.detector.c_str(), score.alarms, score.alarmed_windows,
                  score.true_positive_windows, score.false_positive_windows, score.precision,
                  score.recall);
    out << row;
    if (score.detection_latency_ms < 0.0)
      out << "-\n";
    else {
      std::snprintf(row, sizeof row, "%.3f\n", score.detection_latency_ms);
      out << row;
    }
  }
  std::snprintf(row, sizeof row,
                "windows=%zu attack_windows=%zu probes=%zu alarms=%zu window_ms=%.3f\n",
                total_windows, attack_windows, probes, alarms, util::to_millis(window));
  out << row;
  return out.str();
}

}  // namespace ndnp::sim
