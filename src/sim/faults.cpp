#include "sim/faults.hpp"

#include <algorithm>

#include "ndn/tlv.hpp"
#include "sim/forwarder.hpp"
#include "util/metrics.hpp"
#include "util/tracing.hpp"

namespace ndnp::sim {

namespace {

/// Direction 0/1 of link seed s take SplitMix64(s) outputs 1/2; each
/// direction seed then expands into (decision, corruption) child seeds the
/// same way. Distinct link seeds therefore give fully independent streams.
std::uint64_t direction_seed(std::uint64_t seed, int direction) {
  util::SplitMix64 mix(seed);
  std::uint64_t s = mix.next();
  if (direction != 0) s = mix.next();
  return s;
}

std::uint64_t child_seed(std::uint64_t seed, int index) {
  util::SplitMix64 mix(seed);
  std::uint64_t s = mix.next();
  for (int i = 0; i < index; ++i) s = mix.next();
  return s;
}

}  // namespace

bool LinkFaultConfig::enabled() const noexcept {
  return burst_loss.enabled() || duplicate_probability > 0.0 || corrupt_probability > 0.0 ||
         (reorder_probability > 0.0 && reorder_window > 0) ||
         (spike_probability > 0.0 && spike_delay > 0) || (flap_period > 0 && flap_down > 0);
}

LinkFaultCounters& LinkFaultCounters::operator+=(const LinkFaultCounters& other) noexcept {
  packets += other.packets;
  burst_drops += other.burst_drops;
  flap_drops += other.flap_drops;
  duplicates += other.duplicates;
  corrupted += other.corrupted;
  corrupt_drops += other.corrupt_drops;
  reorders += other.reorders;
  spikes += other.spikes;
  return *this;
}

void LinkFaultCounters::export_metrics(util::MetricsSnapshot& snap,
                                       const std::string& prefix) const {
  snap.counters[prefix + ".packets"] += packets;
  snap.counters[prefix + ".burst_drops"] += burst_drops;
  snap.counters[prefix + ".flap_drops"] += flap_drops;
  snap.counters[prefix + ".duplicates"] += duplicates;
  snap.counters[prefix + ".corrupted"] += corrupted;
  snap.counters[prefix + ".corrupt_drops"] += corrupt_drops;
  snap.counters[prefix + ".reorders"] += reorders;
  snap.counters[prefix + ".spikes"] += spikes;
}

LinkFaultState::LinkFaultState(const LinkFaultConfig& config, int direction)
    : config_(config),
      rng_(child_seed(direction_seed(config.seed, direction), 0)),
      corrupt_rng_(child_seed(direction_seed(config.seed, direction), 1)),
      chain_(config.burst_loss) {
  if (config_.flap_period > 0 && config_.flap_down > 0)
    flap_phase_ = static_cast<util::SimDuration>(
        rng_.uniform_u64(static_cast<std::uint64_t>(config_.flap_period)));
}

FaultAction LinkFaultState::on_packet(util::SimTime now) {
  ++counters_.packets;
  // Every enabled feature consumes its draws on every packet, regardless of
  // earlier features' outcomes, so one packet's fate never shifts the next
  // packet's draws.
  bool flap_down_now = false;
  if (config_.flap_period > 0 && config_.flap_down > 0)
    flap_down_now = (now + flap_phase_) % config_.flap_period < config_.flap_down;
  bool burst_lost = false;
  if (config_.burst_loss.enabled()) burst_lost = chain_.sample_loss(rng_);
  bool corrupt = false;
  if (config_.corrupt_probability > 0.0)
    corrupt = rng_.bernoulli(config_.corrupt_probability);
  bool duplicate = false;
  if (config_.duplicate_probability > 0.0)
    duplicate = rng_.bernoulli(config_.duplicate_probability);
  bool reorder = false;
  util::SimDuration reorder_extra = 0;
  if (config_.reorder_probability > 0.0 && config_.reorder_window > 0) {
    reorder = rng_.bernoulli(config_.reorder_probability);
    reorder_extra = static_cast<util::SimDuration>(
                        rng_.uniform01() * static_cast<double>(config_.reorder_window)) +
                    1;
  }
  bool spike = false;
  if (config_.spike_probability > 0.0 && config_.spike_delay > 0)
    spike = rng_.bernoulli(config_.spike_probability);

  FaultAction action;
  if (flap_down_now) {
    ++counters_.flap_drops;
    action.drop = true;
    action.cause = "flap";
  } else if (burst_lost) {
    ++counters_.burst_drops;
    action.drop = true;
    action.cause = "burst_loss";
  }
  if (action.drop) return action;
  if (corrupt) {
    action.corrupt = true;
    action.cause = "corrupt";
  }
  if (duplicate) {
    ++counters_.duplicates;
    action.duplicate = true;
    if (action.cause == nullptr) action.cause = "duplicate";
  }
  if (reorder) {
    ++counters_.reorders;
    action.extra_delay += reorder_extra;
    if (action.cause == nullptr) action.cause = "reorder";
  }
  if (spike) {
    ++counters_.spikes;
    action.extra_delay += config_.spike_delay;
    if (action.cause == nullptr) action.cause = "spike";
  }
  return action;
}

namespace {

/// Encode -> flip 1..max_flips seeded bits -> decode. TlvError means the
/// framing broke: the packet is unrecoverable garbage and must be dropped.
/// Any other exception escaping the decoder is a codec bug and propagates.
template <typename Packet, typename Decoder>
std::optional<Packet> corrupt_via_wire(util::Rng& rng, int max_flips, const Packet& packet,
                                       Decoder decode) {
  ndn::Buffer wire = ndn::encode(packet);
  if (wire.empty()) return std::nullopt;
  const std::uint64_t flips =
      1 + rng.uniform_u64(static_cast<std::uint64_t>(std::max(max_flips, 1)));
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::uint64_t bit = rng.uniform_u64(static_cast<std::uint64_t>(wire.size()) * 8);
    wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  try {
    return decode(wire);
  } catch (const ndn::TlvError&) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<ndn::Interest> LinkFaultState::corrupt(const ndn::Interest& interest) {
  auto out = corrupt_via_wire(corrupt_rng_, config_.corrupt_max_bit_flips, interest,
                              [](const ndn::Buffer& wire) { return ndn::decode_interest(wire); });
  if (out.has_value())
    ++counters_.corrupted;
  else
    ++counters_.corrupt_drops;
  return out;
}

std::optional<ndn::Data> LinkFaultState::corrupt(const ndn::Data& data) {
  auto out = corrupt_via_wire(corrupt_rng_, config_.corrupt_max_bit_flips, data,
                              [](const ndn::Buffer& wire) { return ndn::decode_data(wire); });
  if (out.has_value())
    ++counters_.corrupted;
  else
    ++counters_.corrupt_drops;
  return out;
}

std::optional<ndn::Nack> LinkFaultState::corrupt(const ndn::Nack& nack) {
  // A NACK is framed here as its triggering interest plus a reason byte;
  // corruption hits the interest encoding (the reason survives).
  auto interest = corrupt(nack.interest);
  if (!interest.has_value()) return std::nullopt;
  return ndn::Nack{.interest = std::move(*interest), .reason = nack.reason};
}

// ---------------------------------------------------------------------------
// Per-node faults.

std::string_view to_string(NodeFaultKind kind) noexcept {
  switch (kind) {
    case NodeFaultKind::kCsWipe:
      return "cs_wipe";
    case NodeFaultKind::kPitSqueeze:
      return "pit_squeeze";
  }
  return "unknown";
}

void NodeFaultCounters::export_metrics(util::MetricsSnapshot& snap,
                                       const std::string& prefix) const {
  snap.counters[prefix + ".cs_wipes"] += cs_wipes;
  snap.counters[prefix + ".cs_entries_wiped"] += cs_entries_wiped;
  snap.counters[prefix + ".pit_squeezes"] += pit_squeezes;
}

void schedule_node_faults(Forwarder& forwarder, const std::vector<NodeFaultEvent>& events,
                          NodeFaultCounters* counters) {
  for (const NodeFaultEvent& event : events) {
    forwarder.scheduler().schedule_at(event.at, [&forwarder, event, counters] {
      switch (event.kind) {
        case NodeFaultKind::kCsWipe: {
          const std::size_t wiped = forwarder.cs().size();
          forwarder.cs().clear();
          if (counters != nullptr) {
            ++counters->cs_wipes;
            counters->cs_entries_wiped += wiped;
          }
          NDNP_TRACE_EVENT(util::TraceEventType::kFaultInject, forwarder.name(),
                           forwarder.now(), {}, "fault=cs_wipe", -1,
                           static_cast<std::int64_t>(wiped));
          break;
        }
        case NodeFaultKind::kPitSqueeze: {
          forwarder.set_pit_capacity(event.pit_capacity);
          if (counters != nullptr) ++counters->pit_squeezes;
          NDNP_TRACE_EVENT(util::TraceEventType::kFaultInject, forwarder.name(),
                           forwarder.now(), {}, "fault=pit_squeeze", -1,
                           static_cast<std::int64_t>(event.pit_capacity));
          break;
        }
      }
    });
  }
}

}  // namespace ndnp::sim
