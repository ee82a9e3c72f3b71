#include "core/policies.hpp"

#include <cmath>
#include <stdexcept>

namespace ndnp::core {

// --------------------------------------------------------------------------
// NoPrivacyPolicy

void NoPrivacyPolicy::on_insert(cache::Entry&, const ndn::Interest&, util::SimTime) {}

LookupDecision NoPrivacyPolicy::on_cached_lookup(cache::Entry& entry, const ndn::Interest&,
                                                 bool effective_private, util::SimTime now) {
  const LookupDecision decision{.action = LookupOutcome::kExposedHit, .artificial_delay = 0};
  trace_decision(entry, decision, effective_private, now);
  return decision;
}

std::unique_ptr<CachePrivacyPolicy> NoPrivacyPolicy::clone() const {
  return std::make_unique<NoPrivacyPolicy>(*this);
}

// --------------------------------------------------------------------------
// AlwaysDelayPolicy

std::string_view to_string(DelayMode mode) noexcept {
  switch (mode) {
    case DelayMode::kConstant: return "constant";
    case DelayMode::kContentSpecific: return "content-specific";
    case DelayMode::kDynamic: return "dynamic";
  }
  return "?";
}

AlwaysDelayPolicy::AlwaysDelayPolicy(DelayMode mode, util::SimDuration gamma,
                                     DynamicDelayParams params)
    : mode_(mode), gamma_(gamma), dynamic_(params) {}

AlwaysDelayPolicy AlwaysDelayPolicy::constant(util::SimDuration gamma) {
  if (gamma < 0) throw std::invalid_argument("AlwaysDelayPolicy: gamma must be >= 0");
  return {DelayMode::kConstant, gamma, {}};
}

AlwaysDelayPolicy AlwaysDelayPolicy::content_specific() {
  return {DelayMode::kContentSpecific, 0, {}};
}

AlwaysDelayPolicy AlwaysDelayPolicy::dynamic(DynamicDelayParams params) {
  if (params.two_hop_floor < 0 || !(params.decay > 0.0) || params.decay > 1.0)
    throw std::invalid_argument("AlwaysDelayPolicy: bad dynamic parameters");
  return {DelayMode::kDynamic, 0, params};
}

void AlwaysDelayPolicy::on_insert(cache::Entry&, const ndn::Interest&, util::SimTime) {}

LookupDecision AlwaysDelayPolicy::on_cached_lookup(cache::Entry& entry, const ndn::Interest&,
                                                   bool effective_private, util::SimTime now) {
  LookupDecision decision{.action = LookupOutcome::kExposedHit, .artificial_delay = 0};
  if (effective_private) {
    switch (mode_) {
      case DelayMode::kConstant:
        decision = {.action = LookupOutcome::kDelayedHit, .artificial_delay = gamma_};
        break;
      case DelayMode::kContentSpecific:
        decision = {.action = LookupOutcome::kDelayedHit,
                    .artificial_delay = entry.meta.fetch_delay};
        break;
      case DelayMode::kDynamic: {
        // Shrink toward the two-hop floor as popularity grows: requests for
        // popular content would plausibly be served by a nearby cache anyway.
        ++entry.meta.request_count;
        const double scaled =
            static_cast<double>(entry.meta.fetch_delay) *
            std::pow(dynamic_.decay, static_cast<double>(entry.meta.request_count));
        const auto delay =
            std::max(dynamic_.two_hop_floor, static_cast<util::SimDuration>(scaled));
        decision = {.action = LookupOutcome::kDelayedHit, .artificial_delay = delay};
        break;
      }
    }
  }
  trace_decision(entry, decision, effective_private, now);
  return decision;
}

util::SimDuration AlwaysDelayPolicy::miss_response_delay(util::SimDuration fetch_delay,
                                                         bool effective_private) const {
  // Constant-gamma mode pads fast misses up to gamma so the observable
  // delay equals gamma in both the hit and (nearby-producer) miss case.
  // When the real fetch exceeds gamma there is nothing to pad — this is
  // exactly the "sacrifices privacy for far-away content" drawback the
  // paper points out for constant delay.
  if (mode_ == DelayMode::kConstant && effective_private)
    return std::max(fetch_delay, gamma_);
  return fetch_delay;
}

std::unique_ptr<CachePrivacyPolicy> AlwaysDelayPolicy::clone() const {
  // NDNP-LINT-ALLOW(alloc-naked-new): private copy ctor — make_unique cannot reach it; one clone per sweep config, not a hot path
  return std::unique_ptr<AlwaysDelayPolicy>(new AlwaysDelayPolicy(*this));
}

// --------------------------------------------------------------------------
// NaiveThresholdPolicy

NaiveThresholdPolicy::NaiveThresholdPolicy(std::int64_t k) : k_(k) {
  if (k < 0) throw std::invalid_argument("NaiveThresholdPolicy: k must be >= 0");
}

void NaiveThresholdPolicy::on_insert(cache::Entry& entry, const ndn::Interest&, util::SimTime) {
  entry.meta.request_count = 0;
  entry.meta.k_threshold = k_;
}

LookupDecision NaiveThresholdPolicy::on_cached_lookup(cache::Entry& entry, const ndn::Interest&,
                                                      bool effective_private, util::SimTime now) {
  if (!effective_private) {
    const LookupDecision decision{.action = LookupOutcome::kExposedHit, .artificial_delay = 0};
    trace_decision(entry, decision, effective_private, now);
    return decision;
  }
  ++entry.meta.request_count;
  const auto count = static_cast<std::int64_t>(entry.meta.request_count);
  const LookupDecision decision{.action = count <= k_ ? LookupOutcome::kSimulatedMiss
                                                      : LookupOutcome::kExposedHit,
                                .artificial_delay = 0};
  trace_decision(entry, decision, effective_private, now, count, k_);
  return decision;
}

std::unique_ptr<CachePrivacyPolicy> NaiveThresholdPolicy::clone() const {
  return std::make_unique<NaiveThresholdPolicy>(*this);
}

// --------------------------------------------------------------------------
// RandomCachePolicy

std::string_view to_string(Grouping grouping) noexcept {
  switch (grouping) {
    case Grouping::kNone: return "none";
    case Grouping::kByGroupId: return "group-id";
    case Grouping::kByNamespace: return "namespace";
  }
  return "?";
}

RandomCachePolicy::RandomCachePolicy(std::unique_ptr<KDistribution> dist, std::uint64_t seed,
                                     Grouping grouping, std::size_t namespace_prefix_len)
    : dist_(std::move(dist)),
      rng_(seed),
      grouping_(grouping),
      namespace_prefix_len_(namespace_prefix_len) {
  if (!dist_) throw std::invalid_argument("RandomCachePolicy: null distribution");
  if (grouping_ == Grouping::kByNamespace && namespace_prefix_len_ == 0)
    throw std::invalid_argument("RandomCachePolicy: namespace prefix length must be >= 1");
}

std::unique_ptr<RandomCachePolicy> RandomCachePolicy::uniform(std::int64_t domain,
                                                              std::uint64_t seed,
                                                              Grouping grouping) {
  return std::make_unique<RandomCachePolicy>(std::make_unique<UniformK>(domain), seed, grouping);
}

std::unique_ptr<RandomCachePolicy> RandomCachePolicy::exponential(double alpha,
                                                                  std::int64_t domain,
                                                                  std::uint64_t seed,
                                                                  Grouping grouping) {
  return std::make_unique<RandomCachePolicy>(std::make_unique<TruncatedGeometricK>(alpha, domain),
                                             seed, grouping);
}

std::string RandomCachePolicy::group_key(const cache::Entry& entry) const {
  switch (grouping_) {
    case Grouping::kNone:
      return entry.data.name.to_uri();
    case Grouping::kByGroupId:
      return entry.data.group_id.empty() ? entry.data.name.to_uri() : entry.data.group_id;
    case Grouping::kByNamespace:
      return entry.data.name.prefix(namespace_prefix_len_).to_uri();
  }
  return entry.data.name.to_uri();
}

void RandomCachePolicy::on_insert(cache::Entry& entry, const ndn::Interest&, util::SimTime) {
  if (grouping_ == Grouping::kNone) {
    // Algorithm 1 lines 5-7: sample k_C, start the counter at zero.
    entry.meta.k_threshold = dist_->sample(rng_);
    entry.meta.request_count = 0;
    return;
  }
  // Grouped mode: one (c, k) pair per group, created on first sight and
  // *not* reset when a member re-enters the cache — resetting would let an
  // adversary resample k and average away the randomness.
  const std::string key = group_key(entry);
  if (!groups_.contains(key)) groups_.emplace(key, GroupState{0, dist_->sample(rng_)});
}

LookupDecision RandomCachePolicy::on_cached_lookup(cache::Entry& entry, const ndn::Interest&,
                                                   bool effective_private, util::SimTime now) {
  if (!effective_private) {
    const LookupDecision decision{.action = LookupOutcome::kExposedHit, .artificial_delay = 0};
    trace_decision(entry, decision, effective_private, now);
    return decision;
  }
  std::int64_t count = 0;
  std::int64_t threshold = 0;
  if (grouping_ == Grouping::kNone) {
    count = static_cast<std::int64_t>(++entry.meta.request_count);
    threshold = entry.meta.k_threshold;
  } else {
    auto [it, inserted] = groups_.try_emplace(group_key(entry), GroupState{0, 0});
    if (inserted) it->second.threshold = dist_->sample(rng_);
    count = ++it->second.count;
    threshold = it->second.threshold;
  }
  // Algorithm 1 lines 10-14.
  const LookupDecision decision{.action = count <= threshold ? LookupOutcome::kSimulatedMiss
                                                             : LookupOutcome::kExposedHit,
                                .artificial_delay = 0};
  trace_decision(entry, decision, effective_private, now, count, threshold);
  return decision;
}

std::unique_ptr<CachePrivacyPolicy> RandomCachePolicy::clone() const {
  auto copy = std::make_unique<RandomCachePolicy>(dist_->clone(), 0, grouping_,
                                                  namespace_prefix_len_);
  copy->rng_ = rng_;
  copy->groups_ = groups_;
  return copy;
}

void RandomCachePolicy::export_metrics(util::MetricsSnapshot& snap,
                                       const std::string& prefix) const {
  snap.counters[prefix + ".groups"] += groups_.size();
  std::uint64_t pending = 0;
  for (const auto& [key, state] : groups_) {
    (void)key;
    if (state.count <= state.threshold) ++pending;
  }
  snap.counters[prefix + ".pending"] += pending;
}

}  // namespace ndnp::core
