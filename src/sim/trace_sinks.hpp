// Exporters and forensics for util::Tracer captures.
//
// Three consumers of a recorded event stream:
//  1. JSONL — one flat JSON object per event, greppable and trivially
//     re-parseable (parse_trace_jsonl reads it back for trace_inspect).
//  2. Chrome trace-event JSON — loadable in Perfetto (ui.perfetto.dev) or
//     chrome://tracing. Nodes map to processes, components to threads;
//     simulation-time events become instants ("i"), NDNP_TRACE_SCOPE spans
//     become complete events ("X") whose duration is *wall-clock* time (the
//     only nondeterministic field in a capture; see docs/OBSERVABILITY.md).
//  3. probe_forensics — joins an adversary's attack_probe timeline against
//     the router's ground-truth cs_lookup/policy_decision events and issues
//     a per-probe verdict: an inspectable replay of the paper's Fig. 3
//     cache-probing mechanics and of what a privacy policy hid.
//
// Everything here is deterministic given the event stream (the wall-clock
// span durations are reproduced verbatim, not re-measured).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/policy.hpp"
#include "telemetry/detectors.hpp"
#include "util/sim_time.hpp"
#include "util/tracing.hpp"

namespace ndnp::sim {

/// A trace event with its labels resolved to strings — the schema of one
/// JSONL line, and what parse_trace_jsonl gives back.
struct FlatEvent {
  util::SimTime t = 0;
  std::string type;    // util::to_string(TraceEventType)
  std::string node;
  std::string comp;
  std::string name;    // content name URI, "" when not applicable
  std::string detail;  // "key=value ..." pairs, event-type specific
  std::int64_t face = -1;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// Resolve a tracer's interned events into FlatEvents, oldest first.
[[nodiscard]] std::vector<FlatEvent> flatten(const util::Tracer& tracer);

/// Pull "key=value" out of a FlatEvent::detail string ("" when absent).
[[nodiscard]] std::string detail_field(const std::string& detail, const std::string& key);

/// One JSON object per line:
/// {"t":0,"type":"cs_lookup","node":"R","comp":"cs","face":-1,"name":"/a",
///  "detail":"result=hit depth=1 policy=LRU","a":0,"b":0}
void write_trace_jsonl(const std::vector<FlatEvent>& events, std::ostream& out);

/// Chrome trace-event JSON ({"traceEvents":[...]}): process/thread name
/// metadata, "i" instants at simulation microseconds, "X" spans whose
/// `dur` is the recorded wall-clock duration in microseconds.
void write_chrome_trace(const std::vector<FlatEvent>& events, std::ostream& out);

/// Write `tracer`'s events to `path`; a ".jsonl" extension selects the
/// JSONL format, anything else the Chrome trace-event format. Throws
/// std::runtime_error when the file cannot be written.
void write_trace_file(const util::Tracer& tracer, const std::string& path);

/// Read back a JSONL capture (as produced by write_trace_jsonl). Throws
/// std::runtime_error on malformed lines.
[[nodiscard]] std::vector<FlatEvent> parse_trace_jsonl(std::istream& in);

// ---------------------------------------------------------------------------
// Attack forensics.

/// One attack_probe event joined against the cache's ground truth.
struct ProbeForensics {
  util::SimTime probe_time = 0;  // completion time of the probe
  std::string name;
  std::string truth;             // the probe's own "truth=..." annotation
  std::int64_t rtt = 0;          // measured RTT in ns (attack_probe's `a`)
  std::int64_t round = 0;        // probe round (attack_probe's `b`)
  /// What the first-hop router answered: a kTrueMiss when the lookup
  /// found nothing (or only a stale copy), otherwise the policy's action.
  /// Empty ("Unknown") when no cache lookup lies inside the RTT window.
  std::optional<core::LookupOutcome> verdict;
  std::string decided_by;        // node whose cs_lookup decided the verdict
  /// Whether the verdict's cached/uncached view matches the probe's truth
  /// annotation (an unknown verdict never agrees).
  bool agrees = false;
  /// fault_inject events inside the probe's RTT window: link faults on this
  /// probe's name plus node faults (CS wipe / PIT squeeze, which hit every
  /// name). A disagreement or unknown verdict with faults != 0 is
  /// attributable to injected chaos rather than a forensics/tracer bug.
  std::int64_t faults = 0;
  std::string fault_causes;      // comma-joined distinct causes, "" when clean
};

struct ForensicsReport {
  std::vector<ProbeForensics> probes;
  /// Probes per decided verdict (`requests` stays 0).
  core::EngineStats verdicts;
  std::size_t unknown = 0;
  std::size_t agreements = 0;
  /// Total fault_inject events in the capture / probes with faults in
  /// their RTT window (both 0 on a clean run — the summary line then omits
  /// the fault fields entirely, keeping clean outputs unchanged).
  std::size_t fault_events = 0;
  std::size_t faulted_probes = 0;

  [[nodiscard]] double agreement_rate() const noexcept {
    return probes.empty() ? 0.0
                          : static_cast<double>(agreements) /
                                static_cast<double>(probes.size());
  }
  /// Human-readable per-probe table plus summary line.
  [[nodiscard]] std::string format_table() const;
};

/// Join every attack_probe in `events` against the cache transitions inside
/// its RTT window [t-a, t]: the first matching cs_lookup fixes cached vs
/// not, and the policy_decision that follows it (same node, same name)
/// distinguishes exposed, delayed and simulated outcomes. `events` must be
/// in recording order (which is chronological for a single run).
[[nodiscard]] ForensicsReport probe_forensics(const std::vector<FlatEvent>& events);

// ---------------------------------------------------------------------------
// Telemetry scorecard: detector alarms vs attack ground truth.

/// Per-detector verdict of the fixed-window join (see telemetry_scorecard).
struct DetectorScore {
  std::string detector;               // "hit_rate_shift", ..., or "any"
  std::size_t alarms = 0;             // raw telemetry_alarm events
  std::size_t alarmed_windows = 0;
  std::size_t true_positive_windows = 0;   // alarmed AND attack-active
  std::size_t false_positive_windows = 0;  // alarmed, no attack activity
  double precision = 0.0;  // TP windows / alarmed windows (1 when none alarmed)
  double recall = 0.0;     // TP windows / attack windows (0 when no attack)
  /// First alarm at-or-after the first attack probe minus that probe's
  /// time; negative when the detector never fired during the attack.
  double detection_latency_ms = -1.0;
};

struct TelemetryScorecard {
  util::SimDuration window = 0;
  std::size_t total_windows = 0;
  std::size_t attack_windows = 0;  // windows containing >= 1 attack_probe
  std::size_t probes = 0;          // attack_probe events
  std::size_t alarms = 0;          // telemetry_alarm events
  /// One row per telemetry::DetectorKind plus a final "any" row combining
  /// every detector (the headline recall the CI gate checks).
  std::vector<DetectorScore> detectors;

  /// The "any" row (always present; zeroed scores when `events` was empty).
  [[nodiscard]] const DetectorScore& any() const { return detectors.back(); }
  /// Human-readable per-detector table plus a summary line.
  [[nodiscard]] std::string format_table() const;
};

/// Score a capture's telemetry_alarm stream against its attack_probe ground
/// truth by fixed-window join: the span [0, t_max] is cut into windows of
/// `width`; a window is attack-active when it contains a probe, and a
/// detector credits it when it raised an alarm inside it. Precision, recall
/// and detection latency per detector (plus "any") follow. Deterministic
/// given the event stream; `width` must be positive.
[[nodiscard]] TelemetryScorecard telemetry_scorecard(const std::vector<FlatEvent>& events,
                                                     util::SimDuration width);

}  // namespace ndnp::sim
