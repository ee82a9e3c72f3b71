// Simulation node base class and face plumbing.
//
// A node is anything that terminates NDN links: routers (Forwarder),
// content producers, consumers, adversaries. Nodes exchange Interest/Data
// packets over faces; a face is one endpoint of a bidirectional
// point-to-point link created by connect(). Packet hand-off goes through
// the shared Scheduler with a per-direction sampled link delay, so all
// timing the attacks measure emerges from link configs plus node processing
// delays.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "ndn/packet.hpp"
#include "sim/faults.hpp"
#include "sim/link.hpp"
#include "sim/scheduler.hpp"
#include "util/slab.hpp"

namespace ndnp::util {
struct MetricsSnapshot;
}

namespace ndnp::sim {

using FaceId = std::size_t;

/// Per-face packet conservation ledger: every transmit attempt either gets
/// lost (link loss or injected fault) or delivered — nothing is invented,
/// nothing silently vanishes. `deliveries` is tracked only on faces with
/// fault injection enabled (counting it costs a callback wrapper per
/// packet, which benign hot paths do not pay); on those faces, at
/// quiescence, packets_out == losses + deliveries.
struct FaceAccounting {
  std::uint64_t packets_out = 0;
  std::uint64_t losses = 0;
  std::uint64_t deliveries = 0;
};

class Node {
 public:
  Node(Scheduler& scheduler, std::string name, std::uint64_t seed);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Packet arrival entry points, invoked by the scheduler after the link
  /// delay has elapsed.
  virtual void receive_interest(const ndn::Interest& interest, FaceId in_face) = 0;
  virtual void receive_data(const ndn::Data& data, FaceId in_face) = 0;
  /// NACK arrival; the default implementation drops it.
  virtual void receive_nack(const ndn::Nack& nack, FaceId in_face);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t face_count() const noexcept { return faces_.size(); }
  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] util::SimTime now() const noexcept { return scheduler_.now(); }

  /// Create a bidirectional link between two nodes; both directions use
  /// `config` (independently sampled). Returns (face on a, face on b).
  friend std::pair<FaceId, FaceId> connect(Node& a, Node& b, const LinkConfig& config);

  /// Transmit out of `face`; delivery is scheduled after the sampled link
  /// delay (or dropped on sampled loss). On links with fifo_queue and a
  /// finite bandwidth, packets additionally serialize behind earlier
  /// transmissions in the same direction.
  void send_interest(FaceId face, const ndn::Interest& interest);
  void send_data(FaceId face, const ndn::Data& data);
  void send_nack(FaceId face, const ndn::Nack& nack);

  /// Peer node on the far end of `face` (diagnostics/topology checks).
  [[nodiscard]] const Node& peer(FaceId face) const;

  /// Outgoing packet-conservation ledger of `face` (see FaceAccounting).
  [[nodiscard]] const FaceAccounting& face_accounting(FaceId face) const;

  /// Fault counters of `face`'s outgoing direction; nullptr when the face
  /// has no fault injection configured.
  [[nodiscard]] const LinkFaultCounters* face_fault_counters(FaceId face) const;

  /// Invariant: on every fault-injected face, packets_out == losses +
  /// deliveries. Only meaningful at quiescence (drained scheduler —
  /// in-flight packets are neither); the chaos harness calls this after
  /// every episode. Throws util::InvariantViolation on breach.
  void check_face_conservation() const;

  /// Publish per-face fault counters summed over this node's faces as
  /// "<prefix>.faults.*" plus the conservation ledger totals.
  void export_fault_metrics(util::MetricsSnapshot& snap, const std::string& prefix) const;

 protected:
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }

  /// Pooled copy of a packet for capture in scheduled events. The handle's
  /// object is recycled (not destroyed) when the last capture drops, so its
  /// Name components / payload buffers keep their capacity and steady-state
  /// in-flight copies stop allocating. Handles pin the pool itself, so they
  /// stay valid even if this node is destroyed while packets are in flight.
  template <typename Packet>
  [[nodiscard]] util::PoolRef<Packet> pooled_copy(const Packet& packet) {
    util::PoolRef<Packet> ref = [this] {
      if constexpr (std::is_same_v<Packet, ndn::Interest>) {
        return interest_pool_->acquire();
      } else if constexpr (std::is_same_v<Packet, ndn::Data>) {
        return data_pool_->acquire();
      } else {
        static_assert(std::is_same_v<Packet, ndn::Nack>, "unknown packet type");
        return nack_pool_->acquire();
      }
    }();
    *ref = packet;  // assignment into recycled capacity
    return ref;
  }

 private:
  struct FaceEnd {
    Node* peer = nullptr;
    FaceId peer_face = 0;
    LinkConfig config;
    /// Outgoing transmission frontier for fifo_queue links.
    util::SimTime busy_until = util::kTimeZero;
    /// Fault engine of this face's outgoing direction; created by
    /// connect() only when config.faults.enabled(), so fault-free links
    /// keep their exact pre-fault behavior and RNG streams.
    std::unique_ptr<LinkFaultState> fault_state;
    FaceAccounting accounting;
  };

  /// Common transmission path: samples loss/delay (plus queueing when
  /// enabled) and schedules `deliver` at the arrival time, `extra_delay`
  /// (fault-injected reorder/spike hold-back) later. Takes the scheduler's
  /// native EventFn so the pooled-capture delivery closure moves straight
  /// into the event node without a std::function heap hop.
  void transmit(FaceId face, std::size_t wire_bytes, EventFn deliver,
                const char* kind, const std::string& name_uri,
                util::SimDuration extra_delay = 0);

  /// Shared fault-aware tail of send_interest/send_data/send_nack:
  /// consults the face's fault engine (drop / corrupt / duplicate / delay)
  /// and hands the surviving copies to transmit(). Defined in node.cpp —
  /// only the three send_* methods instantiate it.
  template <typename Packet>
  void transmit_packet(FaceId face, const Packet& packet, const char* kind);

  Scheduler& scheduler_;
  std::string name_;
  util::Rng rng_;
  std::vector<FaceEnd> faces_;
  /// Recycling pools backing pooled_copy() (one per packet type).
  std::shared_ptr<util::ObjectPool<ndn::Interest>> interest_pool_ =
      util::ObjectPool<ndn::Interest>::make();
  std::shared_ptr<util::ObjectPool<ndn::Data>> data_pool_ = util::ObjectPool<ndn::Data>::make();
  std::shared_ptr<util::ObjectPool<ndn::Nack>> nack_pool_ = util::ObjectPool<ndn::Nack>::make();
};

std::pair<FaceId, FaceId> connect(Node& a, Node& b, const LinkConfig& config);

}  // namespace ndnp::sim
