#include "core/engine.hpp"

#include <stdexcept>
#include <string>

#include "util/invariant.hpp"
#include "util/tracing.hpp"

namespace ndnp::core {

namespace {

/// policy_decision detail: "policy=<name> action=<outcome> private=<0|1>",
/// then " c=<c> k=<k>" when the policy reported Algorithm 1's state.
[[nodiscard]] std::string decision_detail(std::string_view policy_name,
                                          const LookupDecision& decision,
                                          bool effective_private) {
  std::string detail = std::string("policy=")
                           .append(policy_name)
                           .append(" action=")
                           .append(to_string(decision.action))
                           .append(effective_private ? " private=1" : " private=0");
  if (decision.k >= 0)
    detail += " c=" + std::to_string(decision.c) + " k=" + std::to_string(decision.k);
  return detail;
}

}  // namespace

CachePrivacyEngine::CachePrivacyEngine(std::size_t cache_capacity,
                                       cache::EvictionPolicy eviction,
                                       std::unique_ptr<CachePrivacyPolicy> policy,
                                       std::uint64_t seed,
                                       double cache_admission_probability)
    : store_(cache_capacity, eviction, seed),
      policy_(std::move(policy)),
      rng_(seed ^ 0xd1b54a32d192ed03ULL),
      admission_probability_(cache_admission_probability) {
  if (!policy_) throw std::invalid_argument("CachePrivacyEngine: null policy");
  if (admission_probability_ < 0.0 || admission_probability_ > 1.0)
    throw std::invalid_argument("CachePrivacyEngine: admission probability must be in [0,1]");
  set_trace_label("engine");
}

void CachePrivacyEngine::set_trace_label(const std::string& label) {
  store_.set_trace_label(label);
}

LookupResult CachePrivacyEngine::lookup(const ndn::Interest& interest, util::SimTime now) {
  ++stats_.requests;
  cache::Entry* entry = store_.find(interest, now);
  if (entry == nullptr) {
    ++stats_.true_misses;
    return {};
  }
  const bool effective_private = resolve_effective_privacy(*entry, interest);
  const LookupDecision decision =
      policy_->on_cached_lookup(*entry, interest, effective_private, now);
  NDNP_TRACE_EVENT(util::TraceEventType::kPolicyDecision, store_.trace_label(), now,
                   entry->data.name.to_uri(),
                   decision_detail(policy_->name(), decision, effective_private), -1,
                   decision.artificial_delay);
  NDNP_INVARIANT_CHECK("engine", decision.action != LookupOutcome::kTrueMiss,
                       "policy %s answered a cached lookup for %s with TrueMiss",
                       std::string(policy_->name()).c_str(), interest.name.to_uri().c_str());
  // Any access refreshes recency — "the corresponding cache entry becomes
  // fresh even if the response is delayed" — and a simulated miss is
  // still an access.
  store_.touch(*entry, now);
  ++stats_.count(decision.action);
  return {.outcome = decision.action,
          .entry = entry,
          .artificial_delay =
              decision.action == LookupOutcome::kDelayedHit ? decision.artificial_delay : 0};
}

bool CachePrivacyEngine::admit(ndn::Data data, const ndn::Interest& cause,
                               util::SimDuration fetch_delay, util::SimTime now,
                               util::Rng& coin) {
  const cache::InsertHint hint = store_.prepare(data.name);
  if (cache::Entry* existing = hint.existing()) {
    existing->data = std::move(data);
    existing->meta.inserted_at = now;  // restarts the freshness period
    store_.touch(*existing, now);
    return true;
  }
  if (admission_probability_ < 1.0 && !coin.bernoulli(admission_probability_)) return false;
  cache::EntryMeta meta;
  meta.inserted_at = now;
  meta.last_access = now;
  meta.fetch_delay = fetch_delay;
  cache::Entry& entry = store_.insert(std::move(data), meta, hint);
  init_privacy_marking(entry, cause);
  policy_->on_insert(entry, cause, now);
  return true;
}

RequestOutcome CachePrivacyEngine::handle(const ndn::Interest& interest, util::SimTime now,
                                          const FetchFn& fetch) {
  NDNP_TRACE_EVENT(util::TraceEventType::kInterestRx, "engine", now, interest.name.to_uri(),
                   interest.private_req ? "private=1" : "private=0");
  const LookupResult found = lookup(interest, now);
  // A simulated miss mimics a miss faithfully: the response takes as long
  // as the original upstream fetch took.
  if (found.outcome == LookupOutcome::kSimulatedMiss)
    return {.kind = found.outcome, .response_delay = found.entry->meta.fetch_delay};
  if (found.outcome != LookupOutcome::kTrueMiss)
    return {.kind = found.outcome, .response_delay = found.artificial_delay};

  // True miss: fetch upstream, offer the Data to the cache, and respond
  // after the fetch delay (padded by the policy when it hides miss/hit
  // asymmetry). The padding sees the marking the Data would get on insert.
  auto [data, fetch_delay] = fetch(interest);
  NDNP_TRACE_EVENT(util::TraceEventType::kDataRx, "engine", now, data.name.to_uri(),
                   "from=upstream", -1, fetch_delay);
  const bool treated_private = data.producer_marked_private() || interest.private_req;
  admit(std::move(data), interest, fetch_delay, now, rng_);
  return {.kind = LookupOutcome::kTrueMiss,
          .response_delay = policy_->miss_response_delay(fetch_delay, treated_private)};
}

void EngineStats::export_outcomes(util::MetricsSnapshot& snap,
                                  const std::string& prefix) const {
  for (const LookupOutcome outcome : kLookupOutcomes)
    snap.counters[prefix + "." + std::string(counter_name(outcome))] += count(outcome);
}

void CachePrivacyEngine::export_metrics(util::MetricsSnapshot& snap,
                                        const std::string& prefix) const {
  snap.counters[prefix + ".requests"] += stats_.requests;
  stats_.export_outcomes(snap, prefix);
  store_.export_metrics(snap, prefix + ".cs");
  policy_->export_metrics(snap, prefix + ".policy");
}

}  // namespace ndnp::core
