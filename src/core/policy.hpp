// Cache-management privacy policy interface (the paper's CM algorithm) and
// the private-content marking rules of Section V.
//
// A policy decides, for each interest that matches cached content, whether
// the router (a) exposes the cache hit, (b) serves from cache after an
// artificial delay (bandwidth preserved, latency mimics a miss), or
// (c) simulates a miss outright (interest forwarded upstream as if the
// content were absent). Per the system model, a policy can hide cache hits
// but can never hide true cache misses.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "cache/content_store.hpp"
#include "ndn/packet.hpp"
#include "util/sim_time.hpp"

namespace ndnp::core {

/// The four ways a router answers an interest. This is the one spelling of
/// the outcome: the engine's counters, the forwarder, the telemetry
/// detectors, policy_decision trace events and probe forensics all use it.
enum class LookupOutcome : std::uint8_t {
  kExposedHit,     // served from cache, hit visible
  kDelayedHit,     // served from cache after an artificial delay
  kSimulatedMiss,  // cached, but behaves exactly as if it were not
  kTrueMiss,       // not cached; fetched upstream
};

inline constexpr std::array<LookupOutcome, 4> kLookupOutcomes = {
    LookupOutcome::kExposedHit, LookupOutcome::kDelayedHit, LookupOutcome::kSimulatedMiss,
    LookupOutcome::kTrueMiss};

/// "ExposedHit", "DelayedHit", "SimulatedMiss", "TrueMiss".
[[nodiscard]] std::string_view to_string(LookupOutcome outcome) noexcept;
/// Metric counter name: "exposed_hits", "delayed_hits", "simulated_misses",
/// "true_misses".
[[nodiscard]] std::string_view counter_name(LookupOutcome outcome) noexcept;

/// A policy's verdict on a cached entry. `action` is never kTrueMiss: a
/// policy can hide cache hits but never true misses.
struct LookupDecision {
  LookupOutcome action = LookupOutcome::kExposedHit;
  /// Extra response delay for kDelayedHit (ignored otherwise).
  util::SimDuration artificial_delay = 0;
};

class CachePrivacyPolicy {
 public:
  virtual ~CachePrivacyPolicy() = default;

  /// Called once when `entry` is inserted after a true miss.
  /// `cause` is the interest whose retrieval populated the cache.
  virtual void on_insert(cache::Entry& entry, const ndn::Interest& cause,
                         util::SimTime now) = 0;

  /// Called for each interest matching a cached entry. `effective_private`
  /// is the already-resolved marking (see resolve_effective_privacy).
  [[nodiscard]] virtual LookupDecision on_cached_lookup(cache::Entry& entry,
                                                        const ndn::Interest& interest,
                                                        bool effective_private,
                                                        util::SimTime now) = 0;

  /// Response delay the router should present on a *true* miss, given the
  /// actual upstream fetch delay. Default: the genuine delay. The
  /// constant-gamma Always-Delay policy overrides this to pad misses up to
  /// gamma so hits and misses are indistinguishable.
  [[nodiscard]] virtual util::SimDuration miss_response_delay(util::SimDuration fetch_delay,
                                                              bool effective_private) const {
    (void)effective_private;
    return fetch_delay;
  }

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::unique_ptr<CachePrivacyPolicy> clone() const = 0;

  /// Publish policy-internal counters into `snap` under `prefix`
  /// (adds current totals; call once per snapshot). Default: nothing —
  /// stateless policies have no counters of their own (decision counts are
  /// kept by the engine/forwarder driving the policy).
  virtual void export_metrics(util::MetricsSnapshot& snap, const std::string& prefix) const {
    (void)snap;
    (void)prefix;
  }

  /// Node label stamped on policy_decision trace events (the owning
  /// forwarder/engine sets its node name; default "policy").
  void set_trace_label(std::string label) { trace_label_ = std::move(label); }
  [[nodiscard]] const std::string& trace_label() const noexcept { return trace_label_; }

 protected:
  /// Record a policy_decision trace event (no-op unless a tracer is bound
  /// and enabled). `c`/`k` are the Algorithm-1 counter and threshold when
  /// the policy keeps them; pass -1 when not applicable.
  void trace_decision(const cache::Entry& entry, const LookupDecision& decision,
                      bool effective_private, util::SimTime now, std::int64_t c = -1,
                      std::int64_t k = -1) const;

 private:
  std::string trace_label_ = "policy";
};

// ---------------------------------------------------------------------------
// Marking rules (Section V + V-B trigger rule).

/// Initialize an entry's privacy marking at insertion time: producer
/// marking always wins; otherwise the inserting interest's privacy bit
/// decides, and a non-private first request immediately de-privatizes the
/// entry for its cache lifetime.
void init_privacy_marking(cache::Entry& entry, const ndn::Interest& cause) noexcept;

/// Resolve whether this lookup must be handled privately, applying the
/// trigger rule: the first non-private interest for producer-unmarked
/// content permanently (for the entry's cache lifetime) de-privatizes it,
/// after which even privacy-flagged interests are served as non-private —
/// the paper shows anything else lets the adversary detect prior private
/// requests. Mutates the entry's marking state accordingly.
[[nodiscard]] bool resolve_effective_privacy(cache::Entry& entry,
                                             const ndn::Interest& interest) noexcept;

}  // namespace ndnp::core
