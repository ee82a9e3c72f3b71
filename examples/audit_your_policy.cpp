// Extensibility walkthrough: write your own cache-privacy policy against
// the core::CachePrivacyPolicy interface, then let the black-box auditor
// measure it — and watch a plausible-looking design fail.
//
// The custom policy below ("CoinFlipPolicy") answers each private request
// with a simulated miss with probability q, independently each time. It
// feels private — every probe is noisy! — but independent per-request
// noise is exactly what Schinzel's countermeasure analysis (cited in the
// paper's related work) warns about: the adversary averages it away. The
// auditor quantifies the failure, and the same harness certifies the
// paper's Random-Cache in its place.
//
//   ./build/examples/audit_your_policy
#include <cstdio>
#include <memory>

#include "core/audit.hpp"
#include "core/policies.hpp"
#include "core/theory.hpp"
#include "util/rng.hpp"

using namespace ndnp;

namespace {

/// A tempting-but-broken design: flip an independent coin per request.
class CoinFlipPolicy final : public core::CachePrivacyPolicy {
 public:
  CoinFlipPolicy(double miss_probability, std::uint64_t seed)
      : miss_probability_(miss_probability), rng_(seed) {}

  void on_insert(cache::Entry&, const ndn::Interest&, util::SimTime) override {}

  [[nodiscard]] core::LookupDecision on_cached_lookup(cache::Entry&, const ndn::Interest&,
                                                      bool effective_private,
                                                      util::SimTime) override {
    if (effective_private && rng_.bernoulli(miss_probability_))
      return {.action = core::LookupOutcome::kSimulatedMiss, .artificial_delay = 0};
    return {.action = core::LookupOutcome::kExposedHit, .artificial_delay = 0};
  }

  [[nodiscard]] std::string_view name() const noexcept override { return "CoinFlip"; }

  [[nodiscard]] std::unique_ptr<core::CachePrivacyPolicy> clone() const override {
    return std::make_unique<CoinFlipPolicy>(*this);
  }

 private:
  double miss_probability_;
  util::Rng rng_;
};

void report(const char* label, const core::AuditReport& audit) {
  std::printf("  %-34s Bayes accuracy %.4f, one-sided delta %.4f\n", label,
              audit.bayes_accuracy, audit.delta_near_zero_epsilon);
}

}  // namespace

int main() {
  std::printf("Black-box audit (Definition IV.3 game, x = 1 prior request, 24 probes,\n");
  std::printf("20000 rounds per state; adversary sees only response delays):\n\n");

  core::AuditConfig config;
  config.x = 1;
  config.probes = 24;
  config.rounds = 20'000;
  config.seed = 11;

  // 1. The custom policy, audited at two noise levels.
  auto seed = std::make_shared<std::uint64_t>(0);
  report("CoinFlip q=0.5 (yours)",
         core::audit_policy([seed] { return std::make_unique<CoinFlipPolicy>(0.5, ++*seed); },
                            config));
  report("CoinFlip q=0.9 (yours)",
         core::audit_policy([seed] { return std::make_unique<CoinFlipPolicy>(0.9, ++*seed); },
                            config));

  // 2. The paper's schemes on the same game.
  report("Uniform-Random-Cache K=24",
         core::audit_policy([seed] { return core::RandomCachePolicy::uniform(24, ++*seed); },
                            config));
  report("Always-Delay (content-specific)", core::audit_policy(
                                                [] {
                                                  return std::make_unique<core::AlwaysDelayPolicy>(
                                                      core::AlwaysDelayPolicy::content_specific());
                                                },
                                                config));

  std::printf(
      "\nWhy the coin flip fails: under 'never requested' the FIRST probe is always\n"
      "a true miss, while under 'requested' it is an exposed hit with probability\n"
      "1-q — the audit lands at exactly 1/2 + (1-q)/2 (0.75 at q=0.5). Driving q\n"
      "up buys privacy only by destroying utility, with no calibrated budget and\n"
      "a one-sided tell on every early hit. Randomness must be sampled ONCE per\n"
      "content (Random-Cache's k_C), not per request — precisely Algorithm 1's\n"
      "design, and the audit confirms its (k, eps, delta) budget on the same game.\n");
  return 0;
}
