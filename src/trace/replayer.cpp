#include "trace/replayer.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "trace/stream.hpp"
#include "util/rng.hpp"
#include "util/tracing.hpp"

namespace ndnp::trace {

bool is_private_content(const ndn::Name& name, double private_fraction, std::uint64_t seed) {
  if (private_fraction <= 0.0) return false;
  if (private_fraction >= 1.0) return true;
  // One hash per content, mixed with the replay seed so different
  // experiments draw different private sets.
  util::SplitMix64 mix(name.hash64() ^ seed);
  const double u =
      static_cast<double>(mix.next() >> 11) * 0x1.0p-53;  // uniform in [0,1)
  return u < private_fraction;
}

void set_rate_gauges(util::MetricsSnapshot& snap, double mean_response_ms) {
  const auto counter = [&](const char* name) -> double {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double requests = counter("engine.requests");
  const double exposed = counter("engine.exposed_hits");
  const double delayed = counter("engine.delayed_hits");
  snap.gauges["replay.hit_rate_pct"] = requests == 0.0 ? 0.0 : 100.0 * exposed / requests;
  snap.gauges["replay.cache_served_pct"] =
      requests == 0.0 ? 0.0 : 100.0 * (exposed + delayed) / requests;
  snap.gauges["replay.mean_response_ms"] = mean_response_ms;
}

ReplaySession::ReplaySession(const ReplayConfig& config)
    : config_(config),
      engine_(config.cache_capacity, config.eviction,
              config.policy_factory ? config.policy_factory()
                                    : throw std::invalid_argument(
                                          "replay: policy_factory is required"),
              config.seed, config.cache_admission_probability),
      rng_(config.seed ^ 0x6a09e667f3bcc909ULL),
      // The degraded-network chain draws from its own stream so that
      // enabling it never shifts the delay-spread draws above — the cache
      // state (and therefore the hit-rate columns) is identical with and
      // without loss.
      upstream_chain_(config.upstream_loss),
      loss_rng_(config.seed ^ 0xbb67ae8584caa73bULL) {
  fetch_ = [this](const ndn::Interest& interest) {
    // Mean upstream fetch delay on a true miss, scaled by a spread drawn
    // uniformly from [0.5, 1.5].
    constexpr util::SimDuration kUpstreamDelay = util::millis(40);
    const double spread = rng_.uniform(0.5, 1.5);
    auto delay = static_cast<util::SimDuration>(
        static_cast<double>(kUpstreamDelay) * spread);
    if (config_.upstream_loss.enabled()) {
      util::SimDuration penalty = 0;
      // Retry cap: a loss=1 chain would otherwise never deliver.
      for (int attempt = 0; attempt < 64 && upstream_chain_.sample_loss(loss_rng_);
           ++attempt) {
        ++result_.upstream_losses;
        penalty += config_.upstream_retry_penalty;
      }
      if (penalty > 0) {
        ++result_.degraded_fetches;
        delay += penalty;
      }
    }
    // Nothing on the replay path reads a payload or verifies a signature,
    // so the upstream answer carries only its name and producer.
    ndn::Data data;
    data.name = interest.name;
    data.producer = "origin";
    return std::pair{std::move(data), delay};
  };
}

void ReplaySession::feed(const TraceRecord& record) {
  // The readers' check, for records that never went through a reader (an
  // in-memory Trace or a VectorTraceSource).
  if (!replayable_timestamp(record.timestamp_s))
    throw TraceParseError("replay: record " + std::to_string(fed_ + 1) +
                              " has a negative, non-finite or out-of-range timestamp",
                          ParseStats{.lines = fed_, .records = fed_});
  ndn::Interest interest;
  interest.name = record.name;
  interest.nonce = rng_.next_u64();
  interest.private_req = is_private_content(
      record.name, config_.private_fraction,
      config_.private_class_seed != 0 ? config_.private_class_seed : config_.seed);
  if (interest.private_req) ++result_.private_requests;

  const auto now = static_cast<util::SimTime>(record.timestamp_s * 1e9);
  const core::RequestOutcome outcome = engine_.handle(interest, now, fetch_);
  // Face scope = trace user; trace names are /web/dom<d>/obj<j>, so the
  // depth-2 prefix scope is the domain.
  telemetry::note_lookup(config_.telemetry, record.user_id, record.name, outcome.kind, now);
  NDNP_TRACE_EVENT(util::TraceEventType::kReplayRequest, "replayer", now,
                   record.name.to_uri(),
                   std::string("outcome=") + std::string(to_string(outcome.kind)) +
                       (interest.private_req ? " private=1" : " private=0"),
                   -1, outcome.response_delay);
  total_response_ms_ += util::to_millis(outcome.response_delay);
  ++fed_;
}

ReplayResult ReplaySession::finish() {
  result_.stats = engine_.stats();
  result_.mean_response_ms =
      fed_ == 0 ? 0.0 : total_response_ms_ / static_cast<double>(fed_);
  util::MetricsSnapshot& snap = result_.metrics;
  engine_.export_metrics(snap, "engine");
  if (config_.telemetry != nullptr) config_.telemetry->export_metrics(snap, "telemetry");
  snap.counters["replay.records"] = fed_;
  snap.counters["replay.private_requests"] = result_.private_requests;
  snap.counters["replay.upstream_losses"] = result_.upstream_losses;
  snap.counters["replay.degraded_fetches"] = result_.degraded_fetches;
  set_rate_gauges(snap, result_.mean_response_ms);
  return std::move(result_);
}

ReplayResult replay(const Trace& trace, const ReplayConfig& config) {
  ReplaySession session(config);
  NDNP_TRACE_SCOPE("replayer", "replay", "replay");
  for (const TraceRecord& record : trace.records) session.feed(record);
  return session.finish();
}

}  // namespace ndnp::trace
