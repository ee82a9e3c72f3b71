#include "sim/chaos.hpp"

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sim/apps.hpp"
#include "sim/forwarder.hpp"
#include "sim/link.hpp"
#include "sim/scheduler.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"

namespace ndnp::sim {

namespace {

/// Workload injection window: interests and node faults land at instants in
/// (0, kHorizon]; the episode then runs to quiescence.
constexpr util::SimDuration kHorizon = util::millis(200);

// ------------------------------------------------------------------ digest

/// FNV-1a over little-endian u64 words: cheap, stable across platforms.
class Fnv1a {
 public:
  void add(std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffULL;
      hash_ *= 0x100000001b3ULL;
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void digest_forwarder(Fnv1a& digest, const Forwarder& forwarder) {
  const ForwarderStats& s = forwarder.stats();
  const core::EngineStats& o = forwarder.engine().stats();
  for (const std::uint64_t v :
       {s.interests_received, s.data_received, o.exposed_hits, o.delayed_hits,
        o.simulated_misses, o.true_misses, s.forwarded_interests, s.collapsed_interests,
        s.nonce_drops, s.scope_drops, s.no_route_drops, s.pit_overflows, s.admission_skips,
        s.nacks_sent, s.nacks_received, s.unsolicited_data, s.pit_expirations,
        s.data_forwarded, s.pit_inserts, s.pit_satisfied, s.pit_nack_erased})
    digest.add(v);
  digest.add(forwarder.pit_size());
  const cache::CacheStats& cs = forwarder.cs().stats();
  for (const std::uint64_t v :
       {cs.lookups, cs.matches, cs.inserts, cs.evictions, cs.overwrites, cs.erases, cs.wiped})
    digest.add(v);
  digest.add(forwarder.cs().size());
}

void digest_faces(Fnv1a& digest, const Node& node, LinkFaultCounters& fault_total) {
  for (FaceId face = 0; face < node.face_count(); ++face) {
    const FaceAccounting& acct = node.face_accounting(face);
    digest.add(acct.packets_out);
    digest.add(acct.losses);
    digest.add(acct.deliveries);
    if (const LinkFaultCounters* c = node.face_fault_counters(face)) {
      for (const std::uint64_t v : {c->packets, c->burst_drops, c->flap_drops, c->duplicates,
                                    c->corrupted, c->corrupt_drops, c->reorders, c->spikes})
        digest.add(v);
      fault_total += *c;
    }
  }
}

// ----------------------------------------------------------- chaos episode

LinkFaultConfig random_fault_config(util::Rng& rng) {
  LinkFaultConfig faults;
  faults.burst_loss = util::GilbertElliottConfig::from_loss_and_burst(
      rng.uniform(0.01, 0.15), 1.0 + rng.uniform(0.0, 5.0));
  faults.duplicate_probability = rng.uniform(0.0, 0.06);
  faults.corrupt_probability = rng.uniform(0.0, 0.04);
  faults.reorder_probability = rng.uniform(0.0, 0.10);
  faults.reorder_window = util::millis_f(rng.uniform(0.2, 2.0));
  faults.spike_probability = rng.uniform(0.0, 0.02);
  faults.spike_delay = util::millis_f(rng.uniform(0.5, 4.0));
  if (rng.bernoulli(0.35)) {
    faults.flap_period = util::millis_f(rng.uniform(20.0, 60.0));
    faults.flap_down = util::millis_f(rng.uniform(1.0, 8.0));
  }
  faults.seed = rng.next_u64();
  return faults;
}

}  // namespace

ChaosEpisodeResult run_chaos_episode(const ChaosEpisodeOptions& options) {
  util::Rng rng(options.seed);
  Scheduler scheduler;
  ChaosEpisodeResult result;

  // --- random chain topology: consumer — F0 … Fn — producer ---
  const std::size_t num_forwarders = 1 + rng.uniform_u64(3);
  result.forwarders = num_forwarders;
  constexpr std::array<cache::EvictionPolicy, 4> kEvictions = {
      cache::EvictionPolicy::kLru, cache::EvictionPolicy::kFifo, cache::EvictionPolicy::kLfu,
      cache::EvictionPolicy::kRandom};

  std::vector<std::unique_ptr<Forwarder>> forwarders;
  std::vector<std::size_t> pit_capacities;
  for (std::size_t i = 0; i < num_forwarders; ++i) {
    ForwarderConfig config;
    config.cs_capacity = 8ULL << rng.uniform_u64(4);
    config.eviction = kEvictions[rng.uniform_u64(kEvictions.size())];
    config.pit_timeout = util::millis(static_cast<std::int64_t>(8 + rng.uniform_u64(25)));
    config.pit_capacity = rng.bernoulli(0.5) ? 4 + rng.uniform_u64(28) : 0;
    config.processing_delay = util::micros(static_cast<std::int64_t>(5 + rng.uniform_u64(40)));
    config.honor_scope = rng.bernoulli(0.3);
    config.pad_collapsed_private = rng.bernoulli(0.25);
    config.cache_admission_probability = rng.bernoulli(0.2) ? 0.7 : 1.0;
    config.seed = rng.next_u64();
    pit_capacities.push_back(config.pit_capacity);
    forwarders.push_back(
        std::make_unique<Forwarder>(scheduler, "F" + std::to_string(i), config));
  }

  Consumer consumer(scheduler, "consumer", rng.next_u64());
  ProducerConfig producer_config;
  producer_config.payload_size = 32 + rng.uniform_u64(256);
  producer_config.mark_private = rng.bernoulli(0.3);
  Producer producer(scheduler, "producer", ndn::Name("/chaos"), "chaos-key", producer_config,
                    rng.next_u64());

  // Every link carries an independently seeded fault config.
  const auto faulty_link = [&rng] {
    LinkConfig config = lan_link();
    config.faults = random_fault_config(rng);
    return config;
  };
  connect(consumer, *forwarders.front(), faulty_link());
  for (std::size_t i = 0; i + 1 < num_forwarders; ++i) {
    const auto [up_face, down_face] =
        connect(*forwarders[i], *forwarders[i + 1], faulty_link());
    (void)down_face;
    forwarders[i]->add_route(ndn::Name("/chaos"), up_face);
  }
  const auto [last_up_face, producer_face] =
      connect(*forwarders.back(), producer, faulty_link());
  (void)producer_face;
  forwarders.back()->add_route(ndn::Name("/chaos"), last_up_face);

  // --- node faults: CS wipes and PIT squeezes at random instants ---
  NodeFaultCounters node_fault_counters;
  const auto random_instant = [&rng] {
    return static_cast<util::SimTime>(1 + rng.uniform_u64(static_cast<std::uint64_t>(kHorizon)));
  };
  for (std::size_t i = 0; i < num_forwarders; ++i) {
    std::vector<NodeFaultEvent> events;
    if (rng.bernoulli(0.5)) {
      const std::size_t wipes = 1 + rng.uniform_u64(2);
      for (std::size_t w = 0; w < wipes; ++w)
        events.push_back({.at = random_instant(), .kind = NodeFaultKind::kCsWipe});
    }
    if (rng.bernoulli(0.4)) {
      const util::SimTime squeeze_at = random_instant();
      events.push_back({.at = squeeze_at,
                        .kind = NodeFaultKind::kPitSqueeze,
                        .pit_capacity = 2 + rng.uniform_u64(6)});
      events.push_back({.at = squeeze_at + static_cast<util::SimTime>(
                                               1 + rng.uniform_u64(util::millis(30))),
                        .kind = NodeFaultKind::kPitSqueeze,
                        .pit_capacity = pit_capacities[i]});
    }
    if (!events.empty())
      schedule_node_faults(*forwarders[i], events, &node_fault_counters);
  }

  // --- workload: random interests over the horizon ---
  const std::size_t pool_size = 12 + rng.uniform_u64(12);
  std::vector<ndn::Name> pool;
  for (std::size_t k = 0; k < pool_size; ++k)
    pool.emplace_back("/chaos/obj" + std::to_string(k));

  for (std::size_t i = 0; i < options.interests; ++i) {
    ndn::Interest interest;
    interest.name = pool[rng.uniform_u64(pool.size())];
    if (rng.bernoulli(0.15))
      interest.name =
          ndn::Name(interest.name.to_uri() + "/seg" + std::to_string(rng.uniform_u64(3)));
    if (rng.bernoulli(0.04))
      interest.name = ndn::Name("/elsewhere/obj" + std::to_string(rng.uniform_u64(4)));
    if (rng.bernoulli(0.15)) interest.must_be_fresh = true;
    if (rng.bernoulli(0.20)) interest.private_req = true;
    if (rng.bernoulli(0.15)) interest.scope = static_cast<int>(2 + rng.uniform_u64(4));
    if (rng.bernoulli(0.15))
      interest.lifetime = util::millis(static_cast<std::int64_t>(1 + rng.uniform_u64(15)));
    if (rng.bernoulli(0.02)) interest.lifetime = -util::millis(3);  // hostile: must clamp
    scheduler.schedule_at(random_instant(), [&consumer, interest] {
      consumer.express_interest(interest, {}, 0, util::millis(60), {}, {});
    });
    ++result.interests_sent;
  }

  // --- run to quiescence, then audit every structural invariant ---
  const std::uint64_t violations_before = util::invariant_violations();
  try {
    scheduler.run();
    for (const auto& forwarder : forwarders) forwarder->check_invariants();
    consumer.check_face_conservation();
    producer.check_face_conservation();
    NDNP_INVARIANT_CHECK("chaos", consumer.outstanding() == 0,
                         "%zu consumer interests unresolved at quiescence",
                         consumer.outstanding());
  } catch (const util::InvariantViolation& violation) {
    result.violation = violation.what();
  }
  result.invariant_violations = util::invariant_violations() - violations_before;
  if (result.invariant_violations > 0 && result.violation.empty())
    result.violation = "invariant violation (no message captured)";

  result.data_received = consumer.data_received();
  result.timeouts = consumer.timeouts();
  result.consumer_nacks = consumer.nacks_received();
  result.events_processed = scheduler.processed();
  result.end_time = scheduler.now();
  result.node_faults = node_fault_counters;

  Fnv1a digest;
  for (const auto& forwarder : forwarders) {
    digest_forwarder(digest, *forwarder);
    digest_faces(digest, *forwarder, result.link_faults);
  }
  digest_faces(digest, consumer, result.link_faults);
  digest_faces(digest, producer, result.link_faults);
  for (const std::uint64_t v :
       {consumer.data_received(), consumer.timeouts(), consumer.nacks_received(),
        static_cast<std::uint64_t>(consumer.outstanding()), producer.interests_served(),
        producer.interests_unmatched(), node_fault_counters.cs_wipes,
        node_fault_counters.cs_entries_wiped, node_fault_counters.pit_squeezes,
        result.events_processed, static_cast<std::uint64_t>(result.end_time),
        result.invariant_violations})
    digest.add(v);
  result.digest = digest.value();
  return result;
}

}  // namespace ndnp::sim
