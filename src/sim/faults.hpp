// Deterministic, seeded fault-injection engine.
//
// The paper's attacks and countermeasures are evaluated in sim/ under
// benign network conditions; this module supplies the misbehaving network.
// Two fault layers, both driven exclusively by util::Rng streams derived
// from explicit seeds, so any fault sequence replays bit-identically from
// its seed (and identically for any --jobs value — each run owns its
// streams):
//
//  - Per-link faults (LinkFaultConfig, attached to sim::LinkConfig): a
//    Gilbert–Elliott burst-loss chain, packet duplication, on-the-wire
//    corruption (encode -> seeded bit flips -> decode; undecodable packets
//    are dropped as garbage, decodable ones are delivered corrupted —
//    exercising exactly the TLV robustness contract), reorder windows and
//    latency spikes (extra delay that legally reorders packets behind
//    later sends), and periodic link flaps (hard down-windows). Each link
//    *direction* owns an independent chain + RNG stream: direction 0/1 of
//    seed s draw from SplitMix64(s) outputs 1/2.
//
//  - Per-node faults (NodeFaultEvent schedules, run against a Forwarder):
//    CS wipe/restart (the cache loses all state mid-run) and PIT-capacity
//    squeezes (the table shrinks under the feet of in-flight interests).
//
// Every injected fault bumps a counter (exported into util::MetricsSnapshot)
// and records a kFaultInject trace event, so probe_forensics and the chaos
// harness can attribute anomalous verdicts to the faults that caused them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ndn/packet.hpp"
#include "util/fault_model.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace ndnp::util {
struct MetricsSnapshot;
}

namespace ndnp::sim {

class Forwarder;

struct LinkFaultConfig {
  /// Burst loss (Gilbert–Elliott). Disabled when p_enter_bad and loss_good
  /// are both zero.
  util::GilbertElliottConfig burst_loss{};
  /// Per-packet probability of transmitting a second, independently
  /// delayed copy (the PIT/nonce dedup paths must absorb it).
  double duplicate_probability = 0.0;
  /// Per-packet probability of corrupting the wire encoding with 1..
  /// corrupt_max_bit_flips bit flips before delivery.
  double corrupt_probability = 0.0;
  int corrupt_max_bit_flips = 3;
  /// Per-packet probability of holding the packet back by a uniform extra
  /// delay in (0, reorder_window] — later packets overtake it.
  double reorder_probability = 0.0;
  util::SimDuration reorder_window = 0;
  /// Per-packet probability of a latency spike of spike_delay.
  double spike_probability = 0.0;
  util::SimDuration spike_delay = 0;
  /// Periodic link flapping: every flap_period the link goes down for
  /// flap_down (packets sent inside a down-window are dropped). The phase
  /// is drawn once per direction from the fault stream. 0 = never flaps.
  util::SimDuration flap_period = 0;
  util::SimDuration flap_down = 0;
  /// Seed of this link's fault streams. Give every faulty link a distinct
  /// seed: the two directions derive independent child streams from it.
  std::uint64_t seed = 0;

  /// Whether any fault is configured (false => zero overhead, zero extra
  /// RNG draws, bit-identical behavior to a fault-free link).
  [[nodiscard]] bool enabled() const noexcept;
};

struct LinkFaultCounters {
  std::uint64_t packets = 0;        // packets that consulted the fault engine
  std::uint64_t burst_drops = 0;    // lost by the Gilbert–Elliott chain
  std::uint64_t flap_drops = 0;     // sent into a down-window
  std::uint64_t duplicates = 0;     // extra copies injected
  std::uint64_t corrupted = 0;      // delivered with flipped bits
  std::uint64_t corrupt_drops = 0;  // corrupted into undecodable garbage
  std::uint64_t reorders = 0;       // held back by a reorder window
  std::uint64_t spikes = 0;         // latency spikes

  [[nodiscard]] std::uint64_t drops() const noexcept { return burst_drops + flap_drops; }
  [[nodiscard]] std::uint64_t total() const noexcept {
    return burst_drops + flap_drops + duplicates + corrupted + corrupt_drops + reorders +
           spikes;
  }

  LinkFaultCounters& operator+=(const LinkFaultCounters& other) noexcept;

  /// Publish as "<prefix>.packets", "<prefix>.burst_drops", ... (adds
  /// current totals; call once per snapshot).
  void export_metrics(util::MetricsSnapshot& snap, const std::string& prefix) const;
};

/// What the fault engine decided for one packet transmission.
struct FaultAction {
  bool drop = false;       // packet never reaches the link
  bool corrupt = false;    // flip bits in the wire encoding before delivery
  bool duplicate = false;  // transmit a second, independently delayed copy
  util::SimDuration extra_delay = 0;  // reorder hold-back + spike, summed
  /// Which fault fired, for kFaultInject/link_drop trace details
  /// ("burst_loss", "flap", ...); nullptr when nothing fired.
  const char* cause = nullptr;

  [[nodiscard]] bool any() const noexcept {
    return drop || corrupt || duplicate || extra_delay > 0;
  }
};

/// Mutable per-direction fault state. Owned by the Node face the direction
/// transmits from; created by connect() only when the config is enabled.
class LinkFaultState {
 public:
  /// `direction` is 0 for the a->b stream, 1 for b->a; each derives an
  /// independent RNG stream from config.seed.
  LinkFaultState(const LinkFaultConfig& config, int direction);

  /// Decide the fate of one packet sent at `now`. Draw order is fixed per
  /// enabled feature (flap, burst chain, corrupt, duplicate, reorder,
  /// spike), so a given (config, seed) always yields the same schedule.
  [[nodiscard]] FaultAction on_packet(util::SimTime now);

  /// Corrupt a packet through its wire encoding: 1..max_bit_flips seeded
  /// bit flips, then decode. nullopt = the corruption broke the framing
  /// and the packet must be dropped as garbage (counted as corrupt_drop;
  /// decoding anything other than TlvError is a codec bug and propagates).
  [[nodiscard]] std::optional<ndn::Interest> corrupt(const ndn::Interest& interest);
  [[nodiscard]] std::optional<ndn::Data> corrupt(const ndn::Data& data);
  [[nodiscard]] std::optional<ndn::Nack> corrupt(const ndn::Nack& nack);

  [[nodiscard]] const LinkFaultCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const LinkFaultConfig& config() const noexcept { return config_; }

 private:
  LinkFaultConfig config_;
  /// Decision stream (flap phase + per-packet fault draws). Corruption
  /// details draw from their own stream so the amount of randomness a
  /// corruption consumes never shifts later packets' fault decisions.
  util::Rng rng_;
  util::Rng corrupt_rng_;
  util::GilbertElliottChain chain_;
  util::SimDuration flap_phase_ = 0;
  LinkFaultCounters counters_;
};

// ---------------------------------------------------------------------------
// Per-node faults.

enum class NodeFaultKind : std::uint8_t {
  kCsWipe,      // clear the content store (cache restart)
  kPitSqueeze,  // shrink (or restore) the PIT capacity
};

[[nodiscard]] std::string_view to_string(NodeFaultKind kind) noexcept;

struct NodeFaultEvent {
  util::SimTime at = 0;
  NodeFaultKind kind = NodeFaultKind::kCsWipe;
  /// kPitSqueeze: the new pit_capacity (0 = unlimited).
  std::size_t pit_capacity = 0;
};

struct NodeFaultCounters {
  std::uint64_t cs_wipes = 0;
  std::uint64_t cs_entries_wiped = 0;
  std::uint64_t pit_squeezes = 0;

  void export_metrics(util::MetricsSnapshot& snap, const std::string& prefix) const;
};

/// Schedule `events` against `forwarder` on its own scheduler. Counters (if
/// provided) must outlive the simulation. Each executed fault records a
/// kFaultInject trace event on the forwarder's node label.
void schedule_node_faults(Forwarder& forwarder, const std::vector<NodeFaultEvent>& events,
                          NodeFaultCounters* counters = nullptr);

}  // namespace ndnp::sim
