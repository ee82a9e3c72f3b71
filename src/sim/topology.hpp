// Topology construction and the canned experiment scenarios of Section III.
//
// `Topology` owns a scheduler plus all nodes and wires them with links.
// The four probe scenarios mirror the paper's Figure 3 settings:
//  (a) LAN        — U and Adv on Fast-Ethernet links to first-hop router R,
//                   producer P two WAN hops past R;
//  (b) WAN        — U and Adv several (IP) hops from R, modelled as one
//                   aggregate high-latency/jitter link; P three NDN hops
//                   past R;
//  (c) WAN, producer privacy — P directly attached to R; U and Adv far
//                   away, so path jitter nearly drowns the R<->P delta;
//  (d) local host — honest and malicious applications sharing one node's
//                   local cache (the "ccnd" daemon) over IPC links.
//
// Note on "several hops away": the paper's U/Adv connect to R through
// plain IP hops (no caches in between), so those are modelled as a single
// link whose latency/jitter aggregates the hops. Hops past R are real NDN
// forwarders with caches.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/policy.hpp"
#include "sim/apps.hpp"
#include "sim/forwarder.hpp"

namespace ndnp::sim {

/// Owns the scheduler and every node of one simulated network.
class Topology {
 public:
  explicit Topology(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }

  Forwarder& add_router(std::string name, ForwarderConfig config,
                        std::unique_ptr<core::CachePrivacyPolicy> policy = nullptr);
  Consumer& add_consumer(std::string name);
  Producer& add_producer(std::string name, ndn::Name prefix, ProducerConfig config);

  /// Wire two owned nodes; returns (face on a, face on b).
  std::pair<FaceId, FaceId> link(Node& a, Node& b, const LinkConfig& config) {
    return connect(a, b, config);
  }

 private:
  [[nodiscard]] std::uint64_t next_seed() noexcept;

  Scheduler scheduler_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint64_t seed_;
  std::uint64_t node_counter_ = 0;
};

/// A cache-probing experiment scenario: honest user U, adversary Adv, the
/// shared first-hop router R, a chain of core routers, and producer P.
/// All raw pointers are owned by `topology`.
struct ProbeScenario {
  Topology topology;
  Consumer* user = nullptr;
  Consumer* adversary = nullptr;
  Forwarder* router = nullptr;               // R: the probed first-hop cache
  std::vector<Forwarder*> core;              // routers between R and P (may be empty)
  Producer* producer = nullptr;

  explicit ProbeScenario(std::uint64_t seed) : topology(seed) {}
};

struct ScenarioParams {
  /// U <-> R and Adv <-> R access link.
  LinkConfig access_link;
  /// Per-hop link along R -> ... -> P.
  LinkConfig core_link;
  /// Number of links between R and P (1 = P directly attached to R).
  std::size_t core_hops = 2;
  ForwarderConfig router_config;
  ProducerConfig producer_config;
  /// Privacy policy installed at R; null = NoPrivacy.
  std::function<std::unique_ptr<core::CachePrivacyPolicy>()> router_policy;
  /// Privacy policy for the core routers between R and P; null = NoPrivacy.
  /// Deployment caveat demonstrated by examples/timing_attack_demo: a
  /// simulated-miss scheme at R alone leaks through the unprotected
  /// next-hop cache (the "miss" returns at neighbor-cache speed).
  std::function<std::unique_ptr<core::CachePrivacyPolicy>()> core_router_policy;
  std::uint64_t seed = 1;
};

/// Generic builder used by all four canned scenarios; P serves /producer.
[[nodiscard]] std::unique_ptr<ProbeScenario> make_probe_scenario(const ScenarioParams& params);

/// Figure 3(a): LAN. Fast-Ethernet access, P two WAN hops past R.
[[nodiscard]] ScenarioParams lan_scenario_params(std::uint64_t seed);

/// Figure 3(b): WAN. Aggregate multi-hop access links, P three hops past R.
[[nodiscard]] ScenarioParams wan_scenario_params(std::uint64_t seed);

/// Figure 3(c): WAN producer privacy. P adjacent to R, consumers far away.
[[nodiscard]] ScenarioParams producer_adjacent_scenario_params(std::uint64_t seed);

/// Figure 3(d): local host. The "router" is the node-local daemon; user and
/// adversary are applications on the same machine; P one WAN hop away.
[[nodiscard]] ScenarioParams local_host_scenario_params(std::uint64_t seed);

}  // namespace ndnp::sim
