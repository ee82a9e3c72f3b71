// CachePrivacyEngine: one router's cache + privacy policy + marking rules +
// accounting. It is the only place that runs the paper's router-side
// decision, in two steps:
//  - lookup(): find a fresh match, resolve effective privacy (Section V
//    marking and trigger rule), let the CM policy expose, delay or hide the
//    hit, refresh recency, and count the outcome;
//  - admit(): cache arriving Data (subject to the admission coin), mark it
//    and seed the policy.
// The event-driven forwarder in sim/ calls the two steps around its PIT.
// Trace replay and the attack harnesses call handle(), which runs lookup ->
// upstream fetch -> admit -> miss padding with the caller supplying "what
// would the upstream return" as a callback. Section VII's evaluation
// (Figure 5) runs entirely on handle().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cache/content_store.hpp"
#include "core/policy.hpp"
#include "util/rng.hpp"

namespace ndnp::core {

/// Outcome of one request, as observable by the requester and as accounted
/// by the evaluation.
struct RequestOutcome {
  LookupOutcome kind = LookupOutcome::kTrueMiss;
  /// Total response delay presented to the requester (artificial delays and
  /// miss padding included; 0 for an exposed hit at the cache).
  util::SimDuration response_delay = 0;

  /// Whether the payload actually came from the cache (bandwidth view):
  /// true for exposed and delayed hits.
  [[nodiscard]] bool served_from_cache() const noexcept {
    return kind == LookupOutcome::kExposedHit || kind == LookupOutcome::kDelayedHit;
  }
};

/// What lookup() decided for one interest.
struct LookupResult {
  LookupOutcome outcome = LookupOutcome::kTrueMiss;
  /// The matched CS entry; nullptr on a true miss.
  cache::Entry* entry = nullptr;
  /// The policy's artificial delay for kDelayedHit (0 otherwise).
  util::SimDuration artificial_delay = 0;
};

/// Counters over all handled requests. "Hit rate" in the paper's Figure 5
/// sense counts only exposed hits.
struct EngineStats {
  std::uint64_t requests = 0;
  std::uint64_t exposed_hits = 0;
  std::uint64_t delayed_hits = 0;
  std::uint64_t simulated_misses = 0;
  std::uint64_t true_misses = 0;

  /// The counter of `outcome`.
  [[nodiscard]] std::uint64_t& count(LookupOutcome outcome) noexcept {
    switch (outcome) {
      case LookupOutcome::kExposedHit: return exposed_hits;
      case LookupOutcome::kDelayedHit: return delayed_hits;
      case LookupOutcome::kSimulatedMiss: return simulated_misses;
      case LookupOutcome::kTrueMiss: break;
    }
    return true_misses;
  }
  [[nodiscard]] std::uint64_t count(LookupOutcome outcome) const noexcept {
    return const_cast<EngineStats&>(*this).count(outcome);
  }
  /// Publish the four outcome counters as "<prefix>.<counter_name>".
  void export_outcomes(util::MetricsSnapshot& snap, const std::string& prefix) const;
};

class CachePrivacyEngine {
 public:
  /// Upstream oracle: returns the Data for an interest plus the fetch
  /// delay the router would observe (interest-in -> content-out).
  using FetchFn =
      std::function<std::pair<ndn::Data, util::SimDuration>(const ndn::Interest&)>;

  /// `cache_admission_probability` < 1 enables probabilistic admission:
  /// fetched content enters the CS only with that probability (1 = cache
  /// everything, the paper's setting).
  CachePrivacyEngine(std::size_t cache_capacity, cache::EvictionPolicy eviction,
                     std::unique_ptr<CachePrivacyPolicy> policy, std::uint64_t seed = 0,
                     double cache_admission_probability = 1.0);

  /// Step 1: decide how to answer `interest` at `now` from the cache.
  /// Stale entries are invisible to MustBeFresh interests. Counts the
  /// request and its outcome. A simulated miss leaves the caller to behave
  /// exactly as on a true miss.
  [[nodiscard]] LookupResult lookup(const ndn::Interest& interest, util::SimTime now);

  /// Step 2: offer Data fetched upstream for `cause` to the cache. If the
  /// exact name is already cached (the Data answers a simulated miss or a
  /// MustBeFresh interest the stale copy could not satisfy), the payload
  /// and its insertion time are refreshed in place, so the freshness period
  /// restarts, and the policy state kept: re-seeding would resample
  /// Random-Cache thresholds and leak. Otherwise the
  /// admission coin is flipped on `coin`, and an admitted entry is marked
  /// and seeded in the policy. Returns false when the coin refused the Data.
  bool admit(ndn::Data data, const ndn::Interest& cause, util::SimDuration fetch_delay,
             util::SimTime now, util::Rng& coin);

  /// Handle one interest end to end: lookup, then on a true miss fetch
  /// upstream, admit (the coin is the engine's own stream) and pad the
  /// response per the policy.
  RequestOutcome handle(const ndn::Interest& interest, util::SimTime now, const FetchFn& fetch);

  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const cache::ContentStore& store() const noexcept { return store_; }
  [[nodiscard]] cache::ContentStore& store() noexcept { return store_; }
  [[nodiscard]] const CachePrivacyPolicy& policy() const noexcept { return *policy_; }

  /// Node label on the CS trace events and on the policy_decision event
  /// lookup() emits for every cached lookup (default "engine").
  void set_trace_label(const std::string& label);

  /// Publish engine, content-store and policy counters into `snap`
  /// under `prefix` ("<prefix>.requests", "<prefix>.cs.*",
  /// "<prefix>.policy.*"). Adds current totals; call once per snapshot.
  void export_metrics(util::MetricsSnapshot& snap, const std::string& prefix) const;

  void reset_stats() noexcept { stats_ = {}; }

 private:
  cache::ContentStore store_;
  std::unique_ptr<CachePrivacyPolicy> policy_;
  util::Rng rng_;
  double admission_probability_;
  EngineStats stats_;
};

}  // namespace ndnp::core
