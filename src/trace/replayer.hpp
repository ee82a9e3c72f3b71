// Trace replayer: drives a CachePrivacyEngine with a request trace and
// reports the hit-rate/latency metrics of the Section VII evaluation.
//
// Content is divided into private and non-private deterministically by
// name hash with probability `private_fraction` (the paper: "we randomly
// divide requested content into private and non-private"); every request
// for private content carries the consumer privacy bit. The router caches
// everything, evicts per the configured policy (LRU in the paper), and a
// hit counts only when the policy exposes it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cache/content_store.hpp"
#include "core/engine.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"
#include "util/fault_model.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace ndnp::trace {

struct ReplayConfig {
  /// 0 = unlimited (the paper's "Inf" column).
  std::size_t cache_capacity = 8'000;
  cache::EvictionPolicy eviction = cache::EvictionPolicy::kLru;
  /// Fraction of content marked private (paper: 0.05 / 0.1 / 0.2 / 0.4).
  double private_fraction = 0.2;
  /// Factory for the router's privacy policy (fresh instance per replay).
  std::function<std::unique_ptr<core::CachePrivacyPolicy>()> policy_factory;
  /// Upstream fetch delay presented on true misses (mean, with a spread
  /// sampled uniformly in [0.5, 1.5] of it).
  util::SimDuration upstream_delay = util::millis(40);
  /// Probability of admitting fetched content into the cache (1 = always).
  double cache_admission_probability = 1.0;
  /// Degraded-network ablation: a Gilbert–Elliott chain runs against the
  /// upstream fetch path. Each lost transmission is retried after
  /// `upstream_retry_penalty` (a retransmission timeout), compounding until
  /// the chain delivers — so burst loss shows up as fetch-delay inflation,
  /// never as a cache-state divergence. Disabled by default.
  util::GilbertElliottConfig upstream_loss{};
  util::SimDuration upstream_retry_penalty = util::millis(80);
  std::uint64_t seed = 1;
  /// Seed for the private/non-private content division; 0 (default) means
  /// "use `seed`". The sharded replayer (docs/SCALE.md) gives every shard
  /// its own `seed` stream but one shared private_class_seed, so all
  /// shards agree on which content is private.
  std::uint64_t private_class_seed = 0;
  /// Optional online telemetry hub (not owned). Every fed request lands in
  /// the hub's detectors — keyed by trace user_id (face scope) and depth-2
  /// name prefix (prefix scope) — and paces the hub's time series; finish()
  /// adds the hub's counters to ReplayResult::metrics under "telemetry".
  /// The hub only observes: cache state, stats and golden vectors are
  /// identical with telemetry on or off.
  telemetry::TelemetryHub* telemetry = nullptr;
};

struct ReplayResult {
  core::EngineStats stats;
  std::uint64_t private_requests = 0;
  /// Upstream transmissions lost to the Gilbert–Elliott chain (each one
  /// cost a retry penalty); 0 unless `upstream_loss` is enabled.
  std::uint64_t upstream_losses = 0;
  /// Fetches that needed at least one retry.
  std::uint64_t degraded_fetches = 0;

  /// The paper's Figure 5 metric, in percent: the "replay.hit_rate_pct"
  /// gauge that set_rate_gauges wrote into `metrics`.
  [[nodiscard]] double hit_rate_pct() const { return metrics.gauges.at("replay.hit_rate_pct"); }
  /// Bandwidth view (exposed + delayed hits), in percent: the
  /// "replay.cache_served_pct" gauge.
  [[nodiscard]] double cache_served_pct() const {
    return metrics.gauges.at("replay.cache_served_pct");
  }
  /// Mean response delay per request, ms.
  double mean_response_ms = 0.0;
  /// The run's metrics: the engine/cs/policy counters ("engine.*"), the
  /// hub's counters ("telemetry.*", when one is armed), the replay.*
  /// counters above plus "replay.records", and the set_rate_gauges gauges.
  util::MetricsSnapshot metrics;
};

/// Set the replay.* rate gauges ("replay.hit_rate_pct",
/// "replay.cache_served_pct", "replay.mean_response_ms") from the snapshot's
/// own engine.* counters, so a merged snapshot of several replays gets rates
/// over its summed counters.
void set_rate_gauges(util::MetricsSnapshot& snap, double mean_response_ms);

/// Decide whether a name is in the private class for a given fraction —
/// deterministic (hash-based), so all requests for one content agree.
[[nodiscard]] bool is_private_content(const ndn::Name& name, double private_fraction,
                                      std::uint64_t seed);

/// Incremental replay: the engine-driving loop of `replay` exposed as
/// feed-one-record-at-a-time, so streaming sources (trace/stream.hpp) can
/// drive a router without materializing the trace. `replay(trace, config)`
/// is exactly `ReplaySession s(config); for (r : records) s.feed(r);
/// s.finish()` — the golden vectors pin the equivalence.
class ReplaySession {
 public:
  explicit ReplaySession(const ReplayConfig& config);

  /// Drive one request through the engine at its trace timestamp.
  void feed(const TraceRecord& record);

  [[nodiscard]] std::uint64_t fed() const noexcept { return fed_; }

  /// Finalize: snapshot engine stats, compute the mean response delay and
  /// build the run's metrics snapshot. Call once.
  [[nodiscard]] ReplayResult finish();

 private:
  ReplayConfig config_;
  core::CachePrivacyEngine engine_;
  util::Rng rng_;
  util::GilbertElliottChain upstream_chain_;
  util::Rng loss_rng_;
  core::CachePrivacyEngine::FetchFn fetch_;
  ReplayResult result_;
  double total_response_ms_ = 0.0;
  std::uint64_t fed_ = 0;
};

[[nodiscard]] ReplayResult replay(const Trace& trace, const ReplayConfig& config);

}  // namespace ndnp::trace
