// Packet-level flight recorder: a per-run, deterministic event tracer.
//
// The paper's attacks are *observability* attacks — an adversary infers
// cache state purely from Interest/Data timing — and the countermeasures
// trade that signal away. Debugging either side needs event-level truth:
// why a probe hit or missed, which entry was evicted, what the policy
// decided and with which k_C. The MetricsSnapshot (util/metrics.hpp) gives
// end-of-run aggregates; this module records the *sequence*.
//
// Model:
//  - A `Tracer` is a compact append/ring buffer of typed `TraceEvent`
//    records stamped with SimTime plus interned node/component labels.
//    One tracer per run, used from one thread (runs are single-threaded;
//    the sweep runner gives every run its own tracer on its own worker).
//  - Instrumentation points go through the NDNP_TRACE_EVENT /
//    NDNP_TRACE_SCOPE macros, which consult the thread-local *bound*
//    tracer (`Tracer::current()`, set via TracerBinding RAII). No binding
//    or a disabled tracer means the macro arguments are never evaluated:
//    the disabled path is one thread-local load and a branch — no
//    allocation, no name formatting (tests/test_tracing.cpp asserts the
//    no-allocation property with a counting operator new).
//
// The tracer only observes: it never draws from util::Rng, never schedules
// events and never feeds results back into the simulation, so golden
// vectors are byte-identical with tracing disabled or enabled
// (tests/test_golden.cpp enforces this).
//
// Exporters (JSONL, Chrome trace-event JSON for Perfetto, the attack
// forensics join) live in sim/trace_sinks.hpp; the CLI is
// tools/trace_inspect.cpp. See docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/sim_time.hpp"

#define NDNP_TRACING 1  // read only by the bench/e2e host record

namespace ndnp::util {

struct MetricsSnapshot;

enum class TraceEventType : std::uint8_t {
  kInterestTx,   // packet handed to a face for transmission
  kInterestRx,   // packet arrived at a node
  kDataTx,
  kDataRx,
  kNackTx,
  kNackRx,
  kLinkEnqueue,  // transmission scheduled on a link (a = total delay ns, b = wire bytes)
  kLinkDequeue,  // delivery at the far end of the link
  kLinkDrop,     // packet lost on the link
  kCsLookup,     // detail: result=hit|miss|expired depth=<d> policy=<eviction>
  kCsInsert,     // detail: size=<n> cap=<c>
  kCsEvict,      // name = victim; detail: reason=capacity|erase
  kPitCreate,
  kPitAggregate,  // interest collapsed onto a pending entry
  kPitSatisfy,    // a = pending duration ns, b = downstream count
  kPitExpire,
  kPolicyDecision,  // detail: action=... k=<k_C> c=<c_C>; a = artificial delay ns
  kAttackProbe,     // a = measured RTT ns, b = probe round; detail: truth=hit|miss
  kReplayRequest,   // one replayed trace request; detail: outcome=...
  kFaultInject,     // injected fault fired; detail: cause=... (see sim/faults.hpp)
  kTelemetryAlarm,  // streaming detector fired; detail: detector=... scope=...
                    // bucket=<n> stat=<v> (see telemetry/detectors.hpp)
  kSpan,            // profiling span (a = wall-clock duration ns)
  kMark,            // free-form instant event
};

[[nodiscard]] std::string_view to_string(TraceEventType type) noexcept;

/// Default component a given event type files under in the exporters
/// ("forwarder", "cs", "policy", "link", "attack", "replay", ...).
[[nodiscard]] std::string_view default_component(TraceEventType type) noexcept;

/// One recorded event. Node and component are interned label ids resolved
/// through the owning Tracer; `name` is the content name URI ("" when not
/// applicable); `a`/`b` are type-specific numeric arguments (see the enum).
struct TraceEvent {
  util::SimTime time = 0;
  TraceEventType type = TraceEventType::kMark;
  std::uint32_t node = 0;
  std::uint32_t comp = 0;
  std::int64_t face = -1;
  std::string name;
  std::string detail;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

class Tracer {
 public:
  /// `ring_capacity` == 0 keeps every event (unbounded append buffer);
  /// otherwise only the most recent `ring_capacity` events are retained
  /// (flight-recorder mode — `dropped()` counts the overwritten ones).
  explicit Tracer(std::size_t ring_capacity = 0);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Only record events whose `name` starts with `prefix` (events with an
  /// empty name — spans, marks — always pass). Empty prefix = record all.
  void set_filter(std::string prefix) { filter_ = std::move(prefix); }
  [[nodiscard]] const std::string& filter() const noexcept { return filter_; }

  /// When set, profiling spans additionally feed wall-clock histograms
  /// ("profile.<comp>.<label>_us", 0–10 000 µs in 100 bins) into this
  /// snapshot, creating each on first use; a span throws
  /// std::invalid_argument if that name already holds another shape.
  /// Wall-clock values are observability-only and must never reach
  /// deterministic outputs.
  void set_profile_registry(MetricsSnapshot* snap) noexcept { profile_ = snap; }
  [[nodiscard]] MetricsSnapshot* profile_registry() const noexcept { return profile_; }

  /// Intern a node/component label; stable id for this tracer's lifetime.
  [[nodiscard]] std::uint32_t intern(std::string_view label);
  [[nodiscard]] const std::string& label(std::uint32_t id) const;
  [[nodiscard]] const std::vector<std::string>& labels() const noexcept { return labels_; }

  /// Append one event (component derived from `type`). `name` must be the
  /// content name URI or empty. Never call directly from instrumentation —
  /// go through NDNP_TRACE_EVENT so the disabled path stays free.
  void record(TraceEventType type, std::string_view node, util::SimTime time,
              std::string name = {}, std::string detail = {}, std::int64_t face = -1,
              std::int64_t a = 0, std::int64_t b = 0);

  /// Append a profiling span (kSpan, explicit component, wall-clock
  /// duration in ns). Stamped with the time of the last recorded event —
  /// spans measure where the *wall clock* goes at that simulation moment.
  void record_span(std::string_view node, std::string_view comp, std::string_view label,
                   std::int64_t wall_ns);

  /// Events in recording order (ring buffers are unwrapped chronologically).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  /// Total record() calls accepted (including ring-overwritten events).
  [[nodiscard]] std::size_t total_recorded() const noexcept { return total_; }
  /// Events overwritten by the ring plus events rejected by the filter.
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t filtered() const noexcept { return filtered_; }
  [[nodiscard]] util::SimTime last_time() const noexcept { return last_time_; }

  void clear();

  /// Tracer bound to this thread (nullptr = tracing inactive). Bind with
  /// TracerBinding; the tracer itself is not thread-safe — one thread per
  /// tracer at a time.
  [[nodiscard]] static Tracer* current() noexcept;

 private:
  friend class TracerBinding;

  bool enabled_ = true;
  std::size_t capacity_;
  std::size_t head_ = 0;  // next overwrite position once the ring is full
  std::size_t total_ = 0;
  std::size_t dropped_ = 0;
  std::size_t filtered_ = 0;
  util::SimTime last_time_ = kTimeZero;
  std::string filter_;
  MetricsSnapshot* profile_ = nullptr;
  std::vector<TraceEvent> ring_;
  std::vector<std::string> labels_;
  std::map<std::string, std::uint32_t, std::less<>> label_ids_;
};

/// RAII: bind `tracer` to the current thread for the scope's duration,
/// restoring the previous binding on destruction. Binding nullptr
/// explicitly suspends tracing for the scope.
class TracerBinding {
 public:
  explicit TracerBinding(Tracer* tracer) noexcept;
  ~TracerBinding();

  TracerBinding(const TracerBinding&) = delete;
  TracerBinding& operator=(const TracerBinding&) = delete;

 private:
  Tracer* previous_;
};

/// Monotonic wall clock in nanoseconds (observability only — never feed
/// this into simulation state; see the determinism guard in test_runner).
[[nodiscard]] std::int64_t wall_clock_ns() noexcept;

/// Implementation of NDNP_TRACE_SCOPE: measures the enclosing scope's
/// wall-clock duration and records a kSpan event (plus a histogram sample
/// when the bound tracer has a profile snapshot). All three labels must
/// outlive the scope (string literals at the macro call sites).
class ScopedTraceSpan {
 public:
  ScopedTraceSpan(const char* node, const char* comp, const char* label) noexcept;
  ~ScopedTraceSpan();

  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;  // non-null only when armed at construction
  const char* node_ = nullptr;
  const char* comp_ = nullptr;
  const char* label_ = nullptr;
  std::int64_t start_ns_ = 0;
};

}  // namespace ndnp::util

// ---------------------------------------------------------------------------
// Instrumentation macros. Arguments are evaluated ONLY when a tracer is
// bound and enabled, so call sites may freely pass `name.to_uri()` and
// formatted detail strings without taxing the common path.

/// NDNP_TRACE_EVENT(type, node, time, name, detail, face, a, b) — trailing
/// arguments optional per Tracer::record's defaults.
#define NDNP_TRACE_EVENT(type, node, /*time,*/...)                            \
  do {                                                                        \
    ::ndnp::util::Tracer* ndnp_trace_t_ = ::ndnp::util::Tracer::current();    \
    if (ndnp_trace_t_ != nullptr && ndnp_trace_t_->enabled())                 \
      ndnp_trace_t_->record((type), (node), __VA_ARGS__);                     \
  } while (0)

#define NDNP_TRACE_CONCAT_IMPL(a, b) a##b
#define NDNP_TRACE_CONCAT(a, b) NDNP_TRACE_CONCAT_IMPL(a, b)

/// Wall-clock profiling span over the enclosing scope.
#define NDNP_TRACE_SCOPE(node, comp, label)                                   \
  ::ndnp::util::ScopedTraceSpan NDNP_TRACE_CONCAT(ndnp_trace_scope_,          \
                                                  __LINE__){(node), (comp), (label)}
