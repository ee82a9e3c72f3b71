// NDN forwarder (router).
//
// Implements the three-table NDN node model of Section II:
//  - CS  (ContentStore): content cache, consulted first; what the privacy
//         policy guards;
//  - PIT (Pending Interest Table): collapses duplicate interests and
//         remembers downstream faces for returning Data;
//  - FIB (Forwarding Information Base): longest-prefix-match routing of
//         interests toward producers.
//
// The CS and the attached core::CachePrivacyPolicy live in a
// core::CachePrivacyEngine, which makes the paper's decision: an interest
// runs the engine's lookup() step (expose / delay / simulate-miss), and
// Data satisfying the PIT runs its admit() step. A simulated miss makes the
// forwarder behave exactly as if the lookup had failed, including
// forwarding the interest upstream. Scope handling is configurable because
// NDN routers "are allowed to disregard this field" — the scope-probe
// attack only works against honoring routers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cache/content_store.hpp"
#include "core/engine.hpp"
#include "sim/node.hpp"
#include "telemetry/telemetry.hpp"
#include "util/open_hash.hpp"

namespace ndnp::sim {

/// How interests are spread over multiple FIB next hops.
enum class ForwardingStrategy {
  kBestRoute,   // always the first registered next hop
  kRoundRobin,  // rotate per prefix
  kMulticast,   // all next hops at once (PIT dedups the replies)
};

[[nodiscard]] std::string_view to_string(ForwardingStrategy strategy) noexcept;

struct ForwarderConfig {
  std::size_t cs_capacity = 10'000;  // 0 = unlimited
  cache::EvictionPolicy eviction = cache::EvictionPolicy::kLru;
  /// Whether to honor Interest.scope (decrement-and-drop); off by default,
  /// as permitted by the NDN spec.
  bool honor_scope = false;
  /// Default PIT entry lifetime; Interest.lifetime overrides per interest.
  util::SimDuration pit_timeout = util::seconds(4);
  /// Maximum concurrent PIT entries; 0 = unlimited. Overflowing interests
  /// are dropped.
  std::size_t pit_capacity = 0;
  /// Per-packet processing latency (lookup + forwarding decision).
  util::SimDuration processing_delay = util::micros(20);
  ForwardingStrategy strategy = ForwardingStrategy::kBestRoute;
  /// Probability of admitting arriving Data into the CS (1 = cache all,
  /// the paper's setting; lower values are the classic cache-pollution
  /// mitigation the admission ablation explores).
  double cache_admission_probability = 1.0;
  /// Send NACKs downstream on no-route / PIT-overflow (scope drops stay
  /// silent: an honoring router reveals nothing extra to scope probes).
  bool send_nacks = true;
  /// Countermeasure to the PIT-collapse side channel (see
  /// attack/pit_probe.hpp): when an interest for *private* content
  /// collapses onto a pending entry, delay its Data copy so the collapsed
  /// requester observes the same latency as a full fetch started at its
  /// own arrival time — the collapse shortcut (and thus the in-flight
  /// oracle) disappears, at zero bandwidth cost.
  bool pad_collapsed_private = false;
  std::uint64_t seed = 1;
};

/// Packet-level counters. The four lookup-outcome counters are the
/// engine's (Forwarder::engine().stats()).
struct ForwarderStats {
  std::uint64_t interests_received = 0;
  std::uint64_t data_received = 0;
  std::uint64_t forwarded_interests = 0;
  std::uint64_t collapsed_interests = 0;
  std::uint64_t nonce_drops = 0;
  std::uint64_t scope_drops = 0;
  std::uint64_t no_route_drops = 0;
  std::uint64_t pit_overflows = 0;
  std::uint64_t admission_skips = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t nacks_received = 0;
  std::uint64_t unsolicited_data = 0;
  std::uint64_t pit_expirations = 0;
  std::uint64_t data_forwarded = 0;
  // PIT entry life-cycle ledger (conservation law checked by
  // check_invariants(): inserts == satisfied + expirations + nack_erased +
  // resident entries).
  std::uint64_t pit_inserts = 0;
  std::uint64_t pit_satisfied = 0;
  std::uint64_t pit_nack_erased = 0;
};

class Forwarder final : public Node {
 public:
  /// `policy` defaults to NoPrivacy when null.
  Forwarder(Scheduler& scheduler, std::string name, ForwarderConfig config,
            std::unique_ptr<core::CachePrivacyPolicy> policy = nullptr);

  /// Route interests under `prefix` out of `next_hop`. An empty prefix is
  /// the default route. Longest prefix wins. Registering several next hops
  /// for one prefix enables the configured multipath strategy; duplicate
  /// registrations are ignored.
  void add_route(const ndn::Name& prefix, FaceId next_hop);

  void receive_interest(const ndn::Interest& interest, FaceId in_face) override;
  void receive_data(const ndn::Data& data, FaceId in_face) override;
  void receive_nack(const ndn::Nack& nack, FaceId in_face) override;

  [[nodiscard]] const cache::ContentStore& cs() const noexcept { return engine_.store(); }
  [[nodiscard]] cache::ContentStore& cs() noexcept { return engine_.store(); }
  [[nodiscard]] const ForwarderStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ForwarderConfig& config() const noexcept { return config_; }
  [[nodiscard]] const core::CachePrivacyPolicy& policy() const noexcept {
    return engine_.policy();
  }
  /// The cache decision (CS + policy + outcome counters).
  [[nodiscard]] const core::CachePrivacyEngine& engine() const noexcept { return engine_; }
  [[nodiscard]] std::size_t pit_size() const noexcept { return pit_.size(); }

  /// Shrink or grow the PIT capacity mid-run (0 = unlimited). Used by the
  /// fault engine's PIT-squeeze; existing entries above a shrunken capacity
  /// stay resident and drain naturally — only new inserts are refused.
  void set_pit_capacity(std::size_t capacity) noexcept { config_.pit_capacity = capacity; }

  /// Structural invariants of this forwarder: the PIT entry-conservation
  /// ledger, interest-disposition accounting, CS integrity and per-face
  /// packet conservation. Only meaningful at quiescence (drained
  /// scheduler); throws util::InvariantViolation on breach.
  void check_invariants() const;

  /// Publish forwarder, content-store and policy counters into `snap`
  /// under `prefix` ("<prefix>.interests_received", "<prefix>.cs.*", ...).
  /// Adds current totals; call once per snapshot.
  void export_metrics(util::MetricsSnapshot& snap, const std::string& prefix) const;

  /// Attach an online telemetry hub (not owned; pass nullptr to detach).
  /// Registers this forwarder's CS/PIT occupancy gauges as time-series
  /// probes and, while armed, feeds every lookup outcome into the hub's
  /// detectors (telemetry::note_lookup). The hub only observes —
  /// arming never changes forwarding behavior or event order.
  void arm_telemetry(telemetry::TelemetryHub* hub);
  [[nodiscard]] telemetry::TelemetryHub* telemetry() const noexcept { return telemetry_; }

 private:
  struct Downstream {
    FaceId face = 0;
    util::SimTime arrived_at = util::kTimeUnset;
  };

  /// PIT entries are keyed by interest name through an open-addressing
  /// hash index (util::OpenHashTable) on Name::hash64() — the name itself
  /// lives in first_interest.name, so the hash table stores no name copy.
  struct PitEntry {
    ndn::Interest first_interest;
    std::vector<Downstream> downstreams;
    std::set<std::uint64_t> nonces;
    util::SimTime created_at = util::kTimeUnset;
    /// created_at + clamped lifetime: the expiry timer fires exactly here,
    /// so any later observation of this entry is a leak (invariant).
    util::SimTime expires_at = util::kTimeUnset;
    std::uint64_t version = 0;  // guards the timeout event against reuse
  };

  struct FibEntry {
    std::vector<FaceId> next_hops;
    std::size_t round_robin_cursor = 0;
  };

  void handle_interest(const ndn::Interest& interest, FaceId in_face);
  void handle_data(const ndn::Data& data, FaceId in_face);
  void handle_nack(const ndn::Nack& nack, FaceId in_face);
  /// `name_hash` is Name::hash64(interest.name), computed once per packet
  /// by the caller and threaded through so the PIT never rehashes.
  void forward_interest(const ndn::Interest& interest, FaceId in_face,
                        std::uint64_t name_hash);
  /// Exact-name PIT lookup/erase by cached hash.
  [[nodiscard]] PitEntry* pit_find(std::uint64_t name_hash, const ndn::Name& name) noexcept;
  bool pit_erase(std::uint64_t name_hash, const ndn::Name& name) noexcept;
  [[nodiscard]] FibEntry* fib_lookup(const ndn::Name& name);
  /// Pick outgoing faces per the strategy, excluding the arrival face.
  [[nodiscard]] std::vector<FaceId> select_next_hops(FibEntry& entry, FaceId in_face);
  void schedule_pit_timeout(const ndn::Name& name, std::uint64_t name_hash,
                            std::uint64_t version, util::SimDuration lifetime);

  ForwarderConfig config_;
  telemetry::TelemetryHub* telemetry_ = nullptr;
  core::CachePrivacyEngine engine_;
  util::OpenHashTable<PitEntry> pit_;
  std::map<ndn::Name, FibEntry> fib_;
  std::uint64_t next_pit_version_ = 0;
  ForwarderStats stats_;
};

}  // namespace ndnp::sim
