#include "sim/topology.hpp"

#include "util/rng.hpp"

namespace ndnp::sim {

std::uint64_t Topology::next_seed() noexcept {
  // Distinct, deterministic per-node seeds derived from the topology seed.
  util::SplitMix64 sm(seed_ + ++node_counter_);
  return sm.next();
}

Forwarder& Topology::add_router(std::string name, ForwarderConfig config,
                                std::unique_ptr<core::CachePrivacyPolicy> policy) {
  config.seed = next_seed();
  auto router =
      std::make_unique<Forwarder>(scheduler_, std::move(name), config, std::move(policy));
  Forwarder& ref = *router;
  nodes_.push_back(std::move(router));
  return ref;
}

Consumer& Topology::add_consumer(std::string name) {
  auto consumer = std::make_unique<Consumer>(scheduler_, std::move(name), next_seed());
  Consumer& ref = *consumer;
  nodes_.push_back(std::move(consumer));
  return ref;
}

Producer& Topology::add_producer(std::string name, ndn::Name prefix, ProducerConfig config) {
  auto producer = std::make_unique<Producer>(scheduler_, std::move(name), std::move(prefix),
                                             "key-" + name, config, next_seed());
  Producer& ref = *producer;
  nodes_.push_back(std::move(producer));
  return ref;
}

std::unique_ptr<ProbeScenario> make_probe_scenario(const ScenarioParams& params) {
  if (params.core_hops < 1)
    throw std::invalid_argument("make_probe_scenario: need at least one hop to the producer");

  auto scenario = std::make_unique<ProbeScenario>(params.seed);
  Topology& topo = scenario->topology;
  const ndn::Name producer_prefix("/producer");

  scenario->router = &topo.add_router(
      "R", params.router_config, params.router_policy ? params.router_policy() : nullptr);
  scenario->user = &topo.add_consumer("U");
  scenario->adversary = &topo.add_consumer("Adv");
  scenario->producer = &topo.add_producer("P", producer_prefix, params.producer_config);

  // Access links: U and Adv each have face 0 toward R.
  topo.link(*scenario->user, *scenario->router, params.access_link);
  topo.link(*scenario->adversary, *scenario->router, params.access_link);

  // Core chain R -> X1 -> ... -> P. By default core routers run NoPrivacy
  // (the paper suggests involving only consumer-facing routers,
  // Section V-B); core_router_policy overrides that.
  Forwarder* upstream = scenario->router;
  for (std::size_t hop = 1; hop < params.core_hops; ++hop) {
    ForwarderConfig core_config = params.router_config;
    core_config.honor_scope = false;
    Forwarder& next =
        topo.add_router(std::string("X").append(std::to_string(hop)), core_config,
                        params.core_router_policy ? params.core_router_policy() : nullptr);
    const auto [up_face, down_face] = topo.link(*upstream, next, params.core_link);
    (void)down_face;
    upstream->add_route(producer_prefix, up_face);
    scenario->core.push_back(&next);
    upstream = &next;
  }
  const auto [last_face, producer_face] =
      topo.link(*upstream, *scenario->producer, params.core_link);
  (void)producer_face;
  upstream->add_route(producer_prefix, last_face);

  return scenario;
}

namespace {

[[nodiscard]] ForwarderConfig default_router_config() {
  ForwarderConfig config;
  config.cs_capacity = 0;  // unlimited: probe experiments control content counts themselves
  config.honor_scope = false;
  return config;
}

}  // namespace

ScenarioParams lan_scenario_params(std::uint64_t seed) {
  ScenarioParams params;
  params.access_link = lan_link(/*latency_ms=*/0.05, /*jitter_ms=*/0.05);
  params.core_link = wan_link(/*latency_ms=*/1.5, /*jitter_median_ms=*/0.2, /*jitter_sigma=*/0.5);
  params.core_hops = 2;
  params.router_config = default_router_config();
  params.seed = seed;
  return params;
}

ScenarioParams wan_scenario_params(std::uint64_t seed) {
  ScenarioParams params;
  // Aggregate several IP hops between the consumers and their first-hop
  // NDN router: higher base latency and wider jitter.
  params.access_link = wan_link(/*latency_ms=*/1.8, /*jitter_median_ms=*/0.35,
                                /*jitter_sigma=*/0.6);
  params.core_link = wan_link(/*latency_ms=*/1.2, /*jitter_median_ms=*/0.25,
                              /*jitter_sigma=*/0.5);
  params.core_hops = 3;
  params.router_config = default_router_config();
  params.seed = seed;
  return params;
}

ScenarioParams producer_adjacent_scenario_params(std::uint64_t seed) {
  ScenarioParams params;
  // Long, jittery consumer paths (~90 ms one way, matching the ~180-220 ms
  // RTTs of Figure 3(c)) and a fast short link R <-> P: the hit/miss delta
  // is small relative to path noise.
  params.access_link = wan_link(/*latency_ms=*/90.0, /*jitter_median_ms=*/4.0,
                                /*jitter_sigma=*/0.7);
  params.core_link = wan_link(/*latency_ms=*/1.0, /*jitter_median_ms=*/0.3,
                              /*jitter_sigma=*/0.5);
  params.core_hops = 1;  // P directly attached to R
  params.router_config = default_router_config();
  params.seed = seed;
  return params;
}

ScenarioParams local_host_scenario_params(std::uint64_t seed) {
  ScenarioParams params;
  // "Router" is the node-local daemon; apps talk to it over IPC. The
  // network behind it is one WAN hop to the producer.
  params.access_link = local_ipc_link(/*latency_ms=*/0.1, /*jitter_ms=*/0.15);
  params.core_link = wan_link(/*latency_ms=*/1.8, /*jitter_median_ms=*/0.5,
                              /*jitter_sigma=*/0.6);
  params.core_hops = 1;
  params.router_config = default_router_config();
  params.seed = seed;
  return params;
}

}  // namespace ndnp::sim
