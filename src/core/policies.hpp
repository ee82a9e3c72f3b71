// Concrete cache-privacy policies.
//
// Section V:  NoPrivacyPolicy (baseline), AlwaysDelayPolicy (perfect
//             privacy via artificial delays — constant gamma, per-content
//             gamma_C, or dynamic), NaiveThresholdPolicy (the non-private
//             strawman that always misses for the first k requests).
// Section VI: RandomCachePolicy (Algorithm 1) with a pluggable threshold
//             distribution — Uniform-Random-Cache, Exponential-Random-
//             Cache — and optional correlation grouping.
#pragma once

#include <map>
#include <string>

#include "core/k_distribution.hpp"
#include "core/policy.hpp"
#include "util/rng.hpp"

namespace ndnp::core {

/// Baseline: every cached match is an exposed hit.
class NoPrivacyPolicy final : public CachePrivacyPolicy {
 public:
  void on_insert(cache::Entry& entry, const ndn::Interest& cause, util::SimTime now) override;
  [[nodiscard]] LookupDecision on_cached_lookup(cache::Entry& entry,
                                                const ndn::Interest& interest,
                                                bool effective_private,
                                                util::SimTime now) override;
  [[nodiscard]] std::string_view name() const noexcept override { return "NoPrivacy"; }
  [[nodiscard]] std::unique_ptr<CachePrivacyPolicy> clone() const override;
};

/// Artificial-delay mode for AlwaysDelayPolicy (Section V-B).
enum class DelayMode {
  /// Fixed gamma for every private content; true misses are padded up to
  /// gamma (when the real fetch is faster) so the observable delay is
  /// always gamma.
  kConstant,
  /// Per-content gamma_C: the interest-in -> content-out delay observed
  /// when the router first fetched the content. The safe choice.
  kContentSpecific,
  /// Mimics in-network caching dynamics: artificial delay shrinks as the
  /// content becomes popular, but never below a two-hop floor (the paper
  /// leaves the schedule open; we use gamma_C * decay^requests).
  kDynamic,
};

[[nodiscard]] std::string_view to_string(DelayMode mode) noexcept;

struct DynamicDelayParams {
  /// Lower bound on the artificial delay: the actual delay for content two
  /// hops from the adversary (Definition IV.2 requires never dropping
  /// below it).
  util::SimDuration two_hop_floor = 0;
  /// Multiplicative decay per observed request, in (0, 1].
  double decay = 0.8;
};

/// Perfect privacy (Definition IV.2): cache hits on private content are
/// always hidden behind an artificial delay; bandwidth is still saved
/// because content is served from the cache.
class AlwaysDelayPolicy final : public CachePrivacyPolicy {
 public:
  /// Constant-gamma variant.
  static AlwaysDelayPolicy constant(util::SimDuration gamma);
  /// Content-specific gamma_C variant.
  static AlwaysDelayPolicy content_specific();
  /// Dynamic variant.
  static AlwaysDelayPolicy dynamic(DynamicDelayParams params);

  void on_insert(cache::Entry& entry, const ndn::Interest& cause, util::SimTime now) override;
  [[nodiscard]] LookupDecision on_cached_lookup(cache::Entry& entry,
                                                const ndn::Interest& interest,
                                                bool effective_private,
                                                util::SimTime now) override;
  [[nodiscard]] util::SimDuration miss_response_delay(util::SimDuration fetch_delay,
                                                      bool effective_private) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "AlwaysDelay"; }
  [[nodiscard]] DelayMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::unique_ptr<CachePrivacyPolicy> clone() const override;

 private:
  AlwaysDelayPolicy(DelayMode mode, util::SimDuration gamma, DynamicDelayParams params);

  DelayMode mode_;
  util::SimDuration gamma_ = 0;
  DynamicDelayParams dynamic_{};
};

/// The paper's non-private naive approach: always miss while c_C <= k for
/// a *fixed, publicly known* k. Broken by construction — see
/// attack::NaiveCounterAttack, which recovers the exact prior request
/// count.
class NaiveThresholdPolicy final : public CachePrivacyPolicy {
 public:
  explicit NaiveThresholdPolicy(std::int64_t k);

  void on_insert(cache::Entry& entry, const ndn::Interest& cause, util::SimTime now) override;
  [[nodiscard]] LookupDecision on_cached_lookup(cache::Entry& entry,
                                                const ndn::Interest& interest,
                                                bool effective_private,
                                                util::SimTime now) override;
  [[nodiscard]] std::string_view name() const noexcept override { return "NaiveThreshold"; }
  [[nodiscard]] std::int64_t k() const noexcept { return k_; }
  [[nodiscard]] std::unique_ptr<CachePrivacyPolicy> clone() const override;

 private:
  std::int64_t k_;
};

/// How RandomCachePolicy keys its (c_C, k_C) state (Section VI,
/// "Addressing Content Correlation").
enum class Grouping {
  /// Per exact content name — the textbook Algorithm 1. Insecure when
  /// access patterns of related content are correlated.
  kNone,
  /// By the producer-assigned Data.group_id (content with an empty id
  /// falls back to its own name).
  kByGroupId,
  /// By name prefix of a configured length — "elements from the same
  /// namespace as a single group".
  kByNamespace,
};

[[nodiscard]] std::string_view to_string(Grouping grouping) noexcept;

/// Algorithm 1: on first retrieval sample k_C from the threshold
/// distribution and set c_C = 0; each later request increments c_C and is
/// answered with a simulated miss while c_C <= k_C, an exposed hit after.
class RandomCachePolicy final : public CachePrivacyPolicy {
 public:
  RandomCachePolicy(std::unique_ptr<KDistribution> dist, std::uint64_t seed,
                    Grouping grouping = Grouping::kNone, std::size_t namespace_prefix_len = 1);

  /// Convenience factories for the two named instantiations.
  static std::unique_ptr<RandomCachePolicy> uniform(std::int64_t domain, std::uint64_t seed,
                                                    Grouping grouping = Grouping::kNone);
  static std::unique_ptr<RandomCachePolicy> exponential(double alpha, std::int64_t domain,
                                                        std::uint64_t seed,
                                                        Grouping grouping = Grouping::kNone);

  void on_insert(cache::Entry& entry, const ndn::Interest& cause, util::SimTime now) override;
  [[nodiscard]] LookupDecision on_cached_lookup(cache::Entry& entry,
                                                const ndn::Interest& interest,
                                                bool effective_private,
                                                util::SimTime now) override;
  [[nodiscard]] std::string_view name() const noexcept override { return "RandomCache"; }
  [[nodiscard]] const KDistribution& distribution() const noexcept { return *dist_; }
  [[nodiscard]] Grouping grouping() const noexcept { return grouping_; }
  [[nodiscard]] std::unique_ptr<CachePrivacyPolicy> clone() const override;
  /// Exports "<prefix>.groups" (distinct (c_C, k_C) states tracked) and
  /// "<prefix>.pending" (groups still inside their k_C window).
  void export_metrics(util::MetricsSnapshot& snap, const std::string& prefix) const override;

 private:
  struct GroupState {
    std::int64_t count = 0;      // c_C for the group
    std::int64_t threshold = 0;  // k_C for the group
  };

  [[nodiscard]] std::string group_key(const cache::Entry& entry) const;

  std::unique_ptr<KDistribution> dist_;
  util::Rng rng_;
  Grouping grouping_;
  std::size_t namespace_prefix_len_;
  /// Group state for grouped modes. Unbounded by design: group state must
  /// outlive individual entries or eviction would reset counters and leak.
  /// Ordered map, not unordered: export_metrics walks it, and iteration
  /// order on a simulation path must be implementation-independent
  /// (determinism-unordered-iteration in docs/STATIC_ANALYSIS.md).
  std::map<std::string, GroupState> groups_;
};

}  // namespace ndnp::core
