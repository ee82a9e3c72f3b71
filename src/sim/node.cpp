#include "sim/node.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/invariant.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/tracing.hpp"

namespace ndnp::sim {

Node::Node(Scheduler& scheduler, std::string name, std::uint64_t seed)
    : scheduler_(scheduler), name_(std::move(name)), rng_(seed) {}

std::pair<FaceId, FaceId> connect(Node& a, Node& b, const LinkConfig& config) {
  if (&a == &b) throw std::invalid_argument("connect: cannot link a node to itself");
  const FaceId fa = a.faces_.size();
  const FaceId fb = b.faces_.size();
  Node::FaceEnd ea;
  ea.peer = &b;
  ea.peer_face = fb;
  ea.config = config;
  Node::FaceEnd eb;
  eb.peer = &a;
  eb.peer_face = fa;
  eb.config = config;
  if (config.faults.enabled()) {
    ea.fault_state = std::make_unique<LinkFaultState>(config.faults, 0);
    eb.fault_state = std::make_unique<LinkFaultState>(config.faults, 1);
  }
  a.faces_.push_back(std::move(ea));
  b.faces_.push_back(std::move(eb));
  return {fa, fb};
}

void Node::receive_nack(const ndn::Nack& nack, FaceId) {
  util::log(util::LogLevel::kDebug, "%s: dropping nack for %s", name_.c_str(),
            nack.interest.name.to_uri().c_str());
}

std::optional<util::SimDuration> Node::transmit(FaceId face, std::size_t wire_bytes,
                                                const char* kind, const ndn::Name& name,
                                                util::SimDuration extra_delay) {
  FaceEnd& end = faces_.at(face);
  ++end.accounting.packets_out;
  if (end.config.sample_loss(rng_)) {
    ++end.accounting.losses;
    util::log(util::LogLevel::kDebug, "%s: %s %s lost on face %zu", name_.c_str(), kind,
              name.to_uri().c_str(), face);
    NDNP_TRACE_EVENT(util::TraceEventType::kLinkDrop, name_, scheduler_.now(), name.to_uri(),
                     std::string("kind=") + kind, static_cast<std::int64_t>(face));
    return std::nullopt;
  }
  // Propagation + jitter (no size component)...
  util::SimDuration delay = end.config.sample_delay(rng_, 0);
  // ... plus transmission, which serializes behind earlier packets when
  // the link models a FIFO queue.
  if (end.config.bandwidth_bps > 0.0) {
    const auto tx = static_cast<util::SimDuration>(
        static_cast<double>(wire_bytes) * 8.0 / end.config.bandwidth_bps * 1e9);
    if (end.config.fifo_queue) {
      const util::SimTime start = std::max(scheduler_.now(), end.busy_until);
      end.busy_until = start + tx;
      delay += (start - scheduler_.now()) + tx;
    } else {
      delay += tx;
    }
  }
  delay += extra_delay;
  NDNP_TRACE_EVENT(util::TraceEventType::kLinkEnqueue, name_, scheduler_.now(), name.to_uri(),
                   std::string("kind=") + kind, static_cast<std::int64_t>(face), delay,
                   static_cast<std::int64_t>(wire_bytes));
  return delay;
}

namespace {

// transmit_packet needs one generic spelling for "this packet's name" and
// "hand this packet to the peer"; the overloads below provide it for the
// three packet types.
const ndn::Name& packet_name(const ndn::Interest& interest) { return interest.name; }
const ndn::Name& packet_name(const ndn::Data& data) { return data.name; }
const ndn::Name& packet_name(const ndn::Nack& nack) { return nack.interest.name; }

void dispatch(Node& peer, FaceId face, const ndn::Interest& packet) {
  peer.receive_interest(packet, face);
}
void dispatch(Node& peer, FaceId face, const ndn::Data& packet) {
  peer.receive_data(packet, face);
}
void dispatch(Node& peer, FaceId face, const ndn::Nack& packet) {
  peer.receive_nack(packet, face);
}

}  // namespace

template <typename Packet>
void Node::transmit_packet(FaceId face, const Packet& packet, const char* kind) {
  FaceEnd& end = faces_.at(face);
  Node* peer = end.peer;
  const FaceId peer_face = end.peer_face;
  const ndn::Name& name = packet_name(packet);

  const Packet* to_send = &packet;
  Packet corrupted;
  util::SimDuration extra_delay = 0;
  int copies = 1;
  if (end.fault_state != nullptr) {
    const FaultAction action = end.fault_state->on_packet(scheduler_.now());
    if (action.any())
      NDNP_TRACE_EVENT(util::TraceEventType::kFaultInject, name_, scheduler_.now(),
                       name.to_uri(),
                       std::string("cause=") + (action.cause ? action.cause : "?") +
                           " kind=" + kind,
                       static_cast<std::int64_t>(face), action.extra_delay);
    if (action.drop) {
      ++end.accounting.packets_out;
      ++end.accounting.losses;
      util::log(util::LogLevel::kDebug, "%s: %s %s dropped by fault (%s) on face %zu",
                name_.c_str(), kind, name.to_uri().c_str(), action.cause ? action.cause : "?",
                face);
      NDNP_TRACE_EVENT(util::TraceEventType::kLinkDrop, name_, scheduler_.now(), name.to_uri(),
                       std::string("kind=") + kind + " cause=" +
                           (action.cause ? action.cause : "?"),
                       static_cast<std::int64_t>(face));
      return;
    }
    if (action.corrupt) {
      std::optional<Packet> mangled = end.fault_state->corrupt(packet);
      if (!mangled.has_value()) {
        // The bit flips broke the TLV framing: the receiver would discard
        // the packet as garbage, so it is dropped here.
        ++end.accounting.packets_out;
        ++end.accounting.losses;
        NDNP_TRACE_EVENT(util::TraceEventType::kLinkDrop, name_, scheduler_.now(),
                         name.to_uri(), std::string("kind=") + kind + " cause=corrupt_garbage",
                         static_cast<std::int64_t>(face));
        return;
      }
      corrupted = std::move(*mangled);
      to_send = &corrupted;
    }
    extra_delay = action.extra_delay;
    if (action.duplicate) copies = 2;
  }
  // One pooled copy shared by all scheduled deliveries (fault duplication
  // included); the pool recycles the buffer capacity once the last copy is
  // dispatched.
  util::PoolRef<Packet> pooled = pooled_copy(*to_send);
  // Fault links close their conservation ledger at delivery time; face
  // indices are stable, so the sender and face index survive a later
  // connect() reallocating faces_. Fault-free links never touch the sender.
  Node* const ledger = end.fault_state != nullptr ? this : nullptr;
  const bool traced = util::Tracer::current() != nullptr;
  for (int i = 0; i < copies; ++i) {
    const std::optional<util::SimDuration> delay =
        transmit(face, to_send->wire_size(), kind, name, extra_delay);
    if (!delay.has_value()) continue;
    // The far end's arrival shows up as link_dequeue, named after the packet
    // as sent (a corrupted copy may carry another name); the URI is built
    // only while a tracer is bound. Exactly one event is scheduled either
    // way, so tracing cannot change the simulation's event order.
    scheduler_.schedule_in(
        *delay, [peer, peer_face, pooled, kind, ledger, face,
                 uri = traced ? name.to_uri() : std::string()]() mutable {
          if (ledger != nullptr) ++ledger->faces_[face].accounting.deliveries;
          if (!uri.empty())
            NDNP_TRACE_EVENT(util::TraceEventType::kLinkDequeue, peer->name(), peer->now(),
                             std::move(uri), std::string("kind=") + kind,
                             static_cast<std::int64_t>(peer_face));
          dispatch(*peer, peer_face, *pooled);
        });
  }
}

void Node::send_interest(FaceId face, const ndn::Interest& interest) {
  NDNP_TRACE_EVENT(util::TraceEventType::kInterestTx, name_, scheduler_.now(),
                   interest.name.to_uri(), interest.private_req ? "private=1" : "private=0",
                   static_cast<std::int64_t>(face));
  transmit_packet(face, interest, "interest");
}

void Node::send_data(FaceId face, const ndn::Data& data) {
  NDNP_TRACE_EVENT(util::TraceEventType::kDataTx, name_, scheduler_.now(), data.name.to_uri(),
                   {}, static_cast<std::int64_t>(face),
                   static_cast<std::int64_t>(data.wire_size()));
  transmit_packet(face, data, "data");
}

void Node::send_nack(FaceId face, const ndn::Nack& nack) {
  NDNP_TRACE_EVENT(util::TraceEventType::kNackTx, name_, scheduler_.now(),
                   nack.interest.name.to_uri(), {}, static_cast<std::int64_t>(face));
  transmit_packet(face, nack, "nack");
}

const Node& Node::peer(FaceId face) const {
  const FaceEnd& end = faces_.at(face);
  if (end.peer == nullptr) throw std::logic_error("Node::peer: unconnected face");
  return *end.peer;
}

const FaceAccounting& Node::face_accounting(FaceId face) const {
  return faces_.at(face).accounting;
}

const LinkFaultCounters* Node::face_fault_counters(FaceId face) const {
  const FaceEnd& end = faces_.at(face);
  return end.fault_state ? &end.fault_state->counters() : nullptr;
}

void Node::check_face_conservation() const {
  for (FaceId face = 0; face < faces_.size(); ++face) {
    const FaceEnd& end = faces_[face];
    if (end.fault_state == nullptr) continue;  // deliveries not tracked
    const FaceAccounting& acct = end.accounting;
    NDNP_INVARIANT_CHECK("link", acct.packets_out == acct.losses + acct.deliveries,
                         "%s face %zu: packets_out=%llu != losses=%llu + deliveries=%llu",
                         name_.c_str(), face,
                         static_cast<unsigned long long>(acct.packets_out),
                         static_cast<unsigned long long>(acct.losses),
                         static_cast<unsigned long long>(acct.deliveries));
  }
}

void Node::export_fault_metrics(util::MetricsSnapshot& snap, const std::string& prefix) const {
  LinkFaultCounters faults;
  FaceAccounting acct;
  for (const FaceEnd& end : faces_) {
    if (end.fault_state != nullptr) faults += end.fault_state->counters();
    acct.packets_out += end.accounting.packets_out;
    acct.losses += end.accounting.losses;
    acct.deliveries += end.accounting.deliveries;
  }
  faults.export_metrics(snap, prefix + ".faults");
  snap.counters[prefix + ".link.packets_out"] += acct.packets_out;
  snap.counters[prefix + ".link.losses"] += acct.losses;
  snap.counters[prefix + ".link.deliveries"] += acct.deliveries;
}

}  // namespace ndnp::sim
