#include "util/tracing.hpp"

#include <chrono>
#include <stdexcept>

#include "util/metrics.hpp"

namespace ndnp::util {

namespace {

thread_local Tracer* t_current = nullptr;

}  // namespace

std::string_view to_string(TraceEventType type) noexcept {
  switch (type) {
    case TraceEventType::kInterestTx: return "interest_tx";
    case TraceEventType::kInterestRx: return "interest_rx";
    case TraceEventType::kDataTx: return "data_tx";
    case TraceEventType::kDataRx: return "data_rx";
    case TraceEventType::kNackTx: return "nack_tx";
    case TraceEventType::kNackRx: return "nack_rx";
    case TraceEventType::kLinkEnqueue: return "link_enqueue";
    case TraceEventType::kLinkDequeue: return "link_dequeue";
    case TraceEventType::kLinkDrop: return "link_drop";
    case TraceEventType::kCsLookup: return "cs_lookup";
    case TraceEventType::kCsInsert: return "cs_insert";
    case TraceEventType::kCsEvict: return "cs_evict";
    case TraceEventType::kPitCreate: return "pit_create";
    case TraceEventType::kPitAggregate: return "pit_aggregate";
    case TraceEventType::kPitSatisfy: return "pit_satisfy";
    case TraceEventType::kPitExpire: return "pit_expire";
    case TraceEventType::kPolicyDecision: return "policy_decision";
    case TraceEventType::kAttackProbe: return "attack_probe";
    case TraceEventType::kReplayRequest: return "replay_request";
    case TraceEventType::kFaultInject: return "fault_inject";
    case TraceEventType::kTelemetryAlarm: return "telemetry_alarm";
    case TraceEventType::kSpan: return "span";
    case TraceEventType::kMark: return "mark";
  }
  return "?";
}

std::string_view default_component(TraceEventType type) noexcept {
  switch (type) {
    case TraceEventType::kInterestTx:
    case TraceEventType::kDataTx:
    case TraceEventType::kNackTx:
    case TraceEventType::kLinkEnqueue:
    case TraceEventType::kLinkDequeue:
    case TraceEventType::kLinkDrop:
      return "link";
    case TraceEventType::kInterestRx:
    case TraceEventType::kDataRx:
    case TraceEventType::kNackRx:
    case TraceEventType::kPitCreate:
    case TraceEventType::kPitAggregate:
    case TraceEventType::kPitSatisfy:
    case TraceEventType::kPitExpire:
      return "forwarder";
    case TraceEventType::kCsLookup:
    case TraceEventType::kCsInsert:
    case TraceEventType::kCsEvict:
      return "cs";
    case TraceEventType::kPolicyDecision:
      return "policy";
    case TraceEventType::kAttackProbe:
      return "attack";
    case TraceEventType::kReplayRequest:
      return "replay";
    case TraceEventType::kFaultInject:
      return "fault";
    case TraceEventType::kTelemetryAlarm:
      return "telemetry";
    case TraceEventType::kSpan:
      return "profile";
    case TraceEventType::kMark:
      return "mark";
  }
  return "?";
}

Tracer::Tracer(std::size_t ring_capacity) : capacity_(ring_capacity) {
  if (capacity_ != 0) ring_.reserve(capacity_);
}

std::uint32_t Tracer::intern(std::string_view label) {
  const auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(labels_.size());
  labels_.emplace_back(label);
  label_ids_.emplace(labels_.back(), id);
  return id;
}

const std::string& Tracer::label(std::uint32_t id) const {
  if (id >= labels_.size()) throw std::out_of_range("Tracer::label: unknown id");
  return labels_[id];
}

void Tracer::record(TraceEventType type, std::string_view node, util::SimTime time,
                    std::string name, std::string detail, std::int64_t face, std::int64_t a,
                    std::int64_t b) {
  if (!enabled_) return;
  if (!filter_.empty() && !name.empty() &&
      name.compare(0, filter_.size(), filter_) != 0) {
    ++filtered_;
    ++dropped_;
    return;
  }
  TraceEvent ev;
  ev.time = time;
  ev.type = type;
  ev.node = intern(node);
  ev.comp = intern(default_component(type));
  ev.face = face;
  ev.name = std::move(name);
  ev.detail = std::move(detail);
  ev.a = a;
  ev.b = b;
  last_time_ = time;
  ++total_;
  if (capacity_ == 0 || ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
  } else {
    ring_[head_] = std::move(ev);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
}

void Tracer::record_span(std::string_view node, std::string_view comp, std::string_view label,
                         std::int64_t wall_ns) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.time = last_time_;
  ev.type = TraceEventType::kSpan;
  ev.node = intern(node);
  ev.comp = intern(comp);
  ev.name.assign(label);
  ev.a = wall_ns;
  ++total_;
  if (capacity_ == 0 || ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
  } else {
    ring_[head_] = std::move(ev);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
  if (profile_ != nullptr) {
    // Wall micros, clamped by the histogram's edge bins.
    std::string metric = "profile.";
    metric += comp;
    metric += '.';
    metric += label;
    metric += "_us";
    constexpr double kHiUs = 10'000.0;
    constexpr std::size_t kBins = 100;
    const auto [it, fresh] =
        profile_->histograms.try_emplace(std::move(metric), 0.0, kHiUs, kBins);
    Histogram& hist = it->second;
    if (!fresh && (hist.lo() != 0.0 || hist.hi() != kHiUs || hist.bins() != kBins))
      throw std::invalid_argument("Tracer: histogram '" + it->first +
                                  "' re-registered with a different shape");
    hist.add(static_cast<double>(wall_ns) / 1'000.0);
  }
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (capacity_ != 0 && ring_.size() == capacity_) {
    // Ring is full: oldest event sits at head_.
    for (std::size_t i = 0; i < ring_.size(); ++i)
      out.push_back(ring_[(head_ + i) % ring_.size()]);
  } else {
    out = ring_;
  }
  return out;
}

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  total_ = 0;
  dropped_ = 0;
  filtered_ = 0;
  last_time_ = kTimeZero;
}

Tracer* Tracer::current() noexcept { return t_current; }

TracerBinding::TracerBinding(Tracer* tracer) noexcept : previous_(t_current) {
  t_current = tracer;
}

TracerBinding::~TracerBinding() { t_current = previous_; }

std::int64_t wall_clock_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScopedTraceSpan::ScopedTraceSpan(const char* node, const char* comp,
                                 const char* label) noexcept {
  Tracer* tracer = Tracer::current();
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  node_ = node;
  comp_ = comp;
  label_ = label;
  start_ns_ = wall_clock_ns();
}

ScopedTraceSpan::~ScopedTraceSpan() {
  if (tracer_ == nullptr) return;
  tracer_->record_span(node_, comp_, label_, wall_clock_ns() - start_ns_);
}

}  // namespace ndnp::util
