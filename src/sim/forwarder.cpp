#include "sim/forwarder.hpp"

#include <algorithm>

#include "core/policies.hpp"
#include "util/invariant.hpp"
#include "util/logging.hpp"
#include "util/tracing.hpp"

namespace ndnp::sim {

Forwarder::Forwarder(Scheduler& scheduler, std::string name, ForwarderConfig config,
                     std::unique_ptr<core::CachePrivacyPolicy> policy)
    : Node(scheduler, std::move(name), config.seed),
      config_(config),
      engine_(config.cs_capacity, config.eviction,
              policy ? std::move(policy) : std::make_unique<core::NoPrivacyPolicy>(),
              config.seed ^ 0x9e3779b97f4a7c15ULL, config.cache_admission_probability) {
  engine_.set_trace_label(this->name());
}

std::string_view to_string(ForwardingStrategy strategy) noexcept {
  switch (strategy) {
    case ForwardingStrategy::kBestRoute: return "best-route";
    case ForwardingStrategy::kRoundRobin: return "round-robin";
    case ForwardingStrategy::kMulticast: return "multicast";
  }
  return "?";
}

void Forwarder::arm_telemetry(telemetry::TelemetryHub* hub) {
  telemetry_ = hub;
  if (hub == nullptr) return;
  // Occupancy gauges ride along with the built-in detector series. Probes
  // read live state at sample time; registration must precede the first
  // sample (the recorder freezes its column set there).
  hub->add_probe("cs.size", [this] { return static_cast<double>(cs().size()); });
  hub->add_probe("pit.size", [this] { return static_cast<double>(pit_.size()); });
  hub->add_probe("forwarder.interests_received",
                 [this] { return static_cast<double>(stats_.interests_received); });
  hub->add_probe("forwarder.forwarded_interests",
                 [this] { return static_cast<double>(stats_.forwarded_interests); });
}

void Forwarder::add_route(const ndn::Name& prefix, FaceId next_hop) {
  auto& next_hops = fib_[prefix].next_hops;
  if (std::find(next_hops.begin(), next_hops.end(), next_hop) == next_hops.end())
    next_hops.push_back(next_hop);
}

void Forwarder::receive_interest(const ndn::Interest& interest, FaceId in_face) {
  ++stats_.interests_received;
  NDNP_TRACE_EVENT(util::TraceEventType::kInterestRx, name(), now(), interest.name.to_uri(),
                   interest.private_req ? "private=1" : "private=0",
                   static_cast<std::int64_t>(in_face));
  const util::PoolRef<ndn::Interest> pending = pooled_copy(interest);
  scheduler().schedule_in(config_.processing_delay,
                          [this, pending, in_face] { handle_interest(*pending, in_face); });
}

void Forwarder::receive_data(const ndn::Data& data, FaceId in_face) {
  ++stats_.data_received;
  NDNP_TRACE_EVENT(util::TraceEventType::kDataRx, name(), now(), data.name.to_uri(), {},
                   static_cast<std::int64_t>(in_face));
  const util::PoolRef<ndn::Data> pending = pooled_copy(data);
  scheduler().schedule_in(config_.processing_delay,
                          [this, pending, in_face] { handle_data(*pending, in_face); });
}

void Forwarder::receive_nack(const ndn::Nack& nack, FaceId in_face) {
  ++stats_.nacks_received;
  NDNP_TRACE_EVENT(util::TraceEventType::kNackRx, name(), now(), nack.interest.name.to_uri(),
                   {}, static_cast<std::int64_t>(in_face));
  const util::PoolRef<ndn::Nack> pending = pooled_copy(nack);
  scheduler().schedule_in(config_.processing_delay,
                          [this, pending, in_face] { handle_nack(*pending, in_face); });
}

Forwarder::PitEntry* Forwarder::pit_find(std::uint64_t name_hash,
                                         const ndn::Name& name) noexcept {
  return pit_.find(name_hash,
                   [&name](const PitEntry& entry) { return entry.first_interest.name == name; });
}

bool Forwarder::pit_erase(std::uint64_t name_hash, const ndn::Name& name) noexcept {
  return pit_.erase(name_hash,
                    [&name](const PitEntry& entry) { return entry.first_interest.name == name; });
}

void Forwarder::handle_interest(const ndn::Interest& interest, FaceId in_face) {
  NDNP_TRACE_SCOPE(name().c_str(), "forwarder", "handle_interest");
  // One hash per packet: every PIT probe below reuses it.
  const std::uint64_t name_hash = interest.name.hash64();

  // Loop suppression: a nonce already recorded for this name means the
  // interest circled back.
  if (PitEntry* pending = pit_find(name_hash, interest.name)) {
    if (pending->nonces.contains(interest.nonce)) {
      ++stats_.nonce_drops;
      return;
    }
  }

  // 1. Content Store, filtered through the privacy policy. A simulated
  // miss behaves exactly like a true one from here on.
  const core::LookupResult found = engine_.lookup(interest, now());
  telemetry::note_lookup(telemetry_, static_cast<std::uint64_t>(in_face), interest.name,
                         found.outcome, now());
  switch (found.outcome) {
    case core::LookupOutcome::kExposedHit:
      send_data(in_face, found.entry->data);
      return;
    case core::LookupOutcome::kDelayedHit: {
      // Pooled copy: the CS entry may be evicted before the delay fires.
      const util::PoolRef<ndn::Data> held = pooled_copy(found.entry->data);
      scheduler().schedule_in(found.artificial_delay,
                              [this, in_face, held] { send_data(in_face, *held); });
      return;
    }
    case core::LookupOutcome::kSimulatedMiss:
    case core::LookupOutcome::kTrueMiss:
      break;
  }

  // 2. PIT: collapse onto an existing pending interest for the same name.
  if (PitEntry* entry = pit_find(name_hash, interest.name)) {
    // A resident entry past its expiry means the timeout event leaked.
    NDNP_INVARIANT_CHECK("forwarder", now() <= entry->expires_at,
                         "PIT entry for %s leaked past lifetime (now=%lld expires=%lld)",
                         interest.name.to_uri().c_str(), static_cast<long long>(now()),
                         static_cast<long long>(entry->expires_at));
    // The nonce-loop gate above returned for known nonces; re-aggregating
    // one here would re-arm a looping interest.
    NDNP_INVARIANT_CHECK("forwarder", !entry->nonces.contains(interest.nonce),
                         "nonce %llu re-aggregated for %s",
                         static_cast<unsigned long long>(interest.nonce),
                         interest.name.to_uri().c_str());
    entry->nonces.insert(interest.nonce);
    const bool known_face =
        std::any_of(entry->downstreams.begin(), entry->downstreams.end(),
                    [in_face](const Downstream& d) { return d.face == in_face; });
    if (!known_face) entry->downstreams.push_back({.face = in_face, .arrived_at = now()});
    ++stats_.collapsed_interests;
    NDNP_TRACE_EVENT(util::TraceEventType::kPitAggregate, name(), now(),
                     interest.name.to_uri(), {}, static_cast<std::int64_t>(in_face), 0,
                     static_cast<std::int64_t>(entry->downstreams.size()));
    return;
  }

  // 3. Forward upstream per FIB, creating a PIT entry.
  forward_interest(interest, in_face, name_hash);
}

void Forwarder::forward_interest(const ndn::Interest& interest, FaceId in_face,
                                 std::uint64_t name_hash) {
  // Scope: the field counts NDN entities the interest may traverse, source
  // included. An honoring router that received the interest with scope <= 2
  // is the last allowed entity and must not forward.
  ndn::Interest upstream = interest;
  if (config_.honor_scope && interest.scope) {
    if (*interest.scope <= 2) {
      ++stats_.scope_drops;
      return;
    }
    upstream.scope = *interest.scope - 1;
  }

  FibEntry* fib_entry = fib_lookup(interest.name);
  const std::vector<FaceId> next_hops =
      fib_entry ? select_next_hops(*fib_entry, in_face) : std::vector<FaceId>{};
  if (next_hops.empty()) {
    ++stats_.no_route_drops;
    util::log(util::LogLevel::kDebug, "%s: no route for %s", name().c_str(),
              interest.name.to_uri().c_str());
    if (config_.send_nacks) {
      ++stats_.nacks_sent;
      send_nack(in_face, {.interest = interest, .reason = ndn::NackReason::kNoRoute});
    }
    return;
  }

  if (config_.pit_capacity != 0 && pit_.size() >= config_.pit_capacity) {
    ++stats_.pit_overflows;
    if (config_.send_nacks) {
      ++stats_.nacks_sent;
      send_nack(in_face, {.interest = interest, .reason = ndn::NackReason::kPitOverflow});
    }
    return;
  }

  // The caller dispatched here only when no entry collapsed this interest;
  // inserting over a live entry would orphan its downstreams and timer.
  NDNP_INVARIANT_CHECK("forwarder", pit_find(name_hash, interest.name) == nullptr,
                       "duplicate PIT insert for %s", interest.name.to_uri().c_str());

  // Clamp the requested lifetime: a corrupted or hostile interest can carry
  // a lifetime that decodes negative, and a negative timer delay would
  // abort the scheduler (found by the fault fuzzer).
  const util::SimDuration lifetime =
      std::max<util::SimDuration>(interest.lifetime.value_or(config_.pit_timeout), 0);

  PitEntry entry;
  entry.first_interest = interest;
  entry.downstreams.push_back({.face = in_face, .arrived_at = now()});
  entry.nonces.insert(interest.nonce);
  entry.created_at = now();
  entry.expires_at = now() + lifetime;
  entry.version = next_pit_version_++;
  const std::uint64_t version = entry.version;
  pit_.emplace(name_hash, std::move(entry), [&interest](const PitEntry& existing) {
    return existing.first_interest.name == interest.name;
  });
  ++stats_.pit_inserts;
  NDNP_INVARIANT_CHECK("forwarder",
                       config_.pit_capacity == 0 || pit_.size() <= config_.pit_capacity,
                       "PIT size %zu exceeds capacity %zu after insert", pit_.size(),
                       config_.pit_capacity);
  NDNP_TRACE_EVENT(util::TraceEventType::kPitCreate, name(), now(), interest.name.to_uri(),
                   {}, static_cast<std::int64_t>(in_face));
  schedule_pit_timeout(interest.name, name_hash, version, lifetime);

  for (const FaceId next_hop : next_hops) {
    ++stats_.forwarded_interests;
    send_interest(next_hop, upstream);
  }
}

void Forwarder::handle_data(const ndn::Data& data, FaceId) {
  NDNP_TRACE_SCOPE(name().c_str(), "forwarder", "handle_data");
  // Gather every PIT entry this Data satisfies: PIT keys are interest
  // names, which must be prefixes of the data name, so only the
  // size()+1 prefixes of data.name are candidates. One FNV pass yields
  // all candidate hashes; the probe compares against the stored interest
  // name in place, so no prefix Name is ever materialized.
  const std::vector<std::uint64_t> prefix_hashes = data.name.prefix_hashes();
  std::vector<std::pair<std::uint64_t, PitEntry*>> matches;
  for (std::size_t len = 0; len <= data.name.size(); ++len) {
    PitEntry* entry =
        pit_.find(prefix_hashes[len], [&data, len](const PitEntry& candidate) {
          return candidate.first_interest.name.size() == len &&
                 candidate.first_interest.name.is_prefix_of(data.name);
        });
    if (entry != nullptr && data.satisfies(entry->first_interest))
      matches.push_back({prefix_hashes[len], entry});
  }
  if (matches.empty()) {
    // NDN rule: content is never forwarded (nor cached) without a
    // preceding interest.
    ++stats_.unsolicited_data;
    return;
  }

  // Cache. The earliest-created matching PIT entry defines the fetch delay
  // (interest-in -> content-out) and the marking cause; the admission coin
  // draws from this node's stream.
  const PitEntry* earliest =
      std::min_element(matches.begin(), matches.end(), [](const auto& a, const auto& b) {
        return a.second->created_at < b.second->created_at;
      })->second;
  if (!engine_.admit(data, earliest->first_interest, now() - earliest->created_at, now(),
                     rng()))
    ++stats_.admission_skips;

  // Forward downstream and flush the satisfied PIT entries. The policy may
  // pad the miss response (constant-gamma Always-Delay equalizes fast
  // misses with delayed hits); padding is per PIT entry since each has its
  // own interest-in time.
  for (const auto& [match_hash, match] : matches) {
    NDNP_INVARIANT_CHECK("forwarder", now() <= match->expires_at,
                         "satisfying PIT entry for %s past its lifetime (now=%lld "
                         "expires=%lld)",
                         match->first_interest.name.to_uri().c_str(),
                         static_cast<long long>(now()),
                         static_cast<long long>(match->expires_at));
    const bool treated_private =
        data.producer_marked_private() || match->first_interest.private_req;
    const util::SimDuration fetch_delay = now() - match->created_at;
    NDNP_TRACE_EVENT(util::TraceEventType::kPitSatisfy, name(), now(),
                     match->first_interest.name.to_uri(), {}, -1, fetch_delay,
                     static_cast<std::int64_t>(match->downstreams.size()));
    const util::SimDuration miss_pad =
        policy().miss_response_delay(fetch_delay, treated_private) - fetch_delay;
    for (const Downstream& downstream : match->downstreams) {
      util::SimDuration pad = miss_pad;
      if (config_.pad_collapsed_private && treated_private &&
          downstream.arrived_at > match->created_at) {
        // Make the collapsed requester wait as long as a fresh fetch
        // started at its own arrival would have taken.
        pad = std::max(pad, downstream.arrived_at - match->created_at);
      }
      if (pad > 0) {
        const util::PoolRef<ndn::Data> held = pooled_copy(data);
        const FaceId face = downstream.face;
        scheduler().schedule_in(pad, [this, face, held] { send_data(face, *held); });
      } else {
        send_data(downstream.face, data);
      }
      ++stats_.data_forwarded;
    }
    // Tombstone deletion: the other matches' PitEntry pointers stay valid.
    pit_.erase(match_hash, [entry = match](const PitEntry& candidate) {
      return &candidate == entry;
    });
    ++stats_.pit_satisfied;
  }
}

void Forwarder::handle_nack(const ndn::Nack& nack, FaceId) {
  // A NACK from upstream kills the pending interest: propagate it to every
  // downstream face and flush the PIT entry. (With multicast strategies a
  // sibling next hop may still answer; we keep the simple semantics of
  // first-signal-wins, which matches best-route.)
  const std::uint64_t name_hash = nack.interest.name.hash64();
  PitEntry* entry = pit_find(name_hash, nack.interest.name);
  if (!entry) return;
  for (const Downstream& downstream : entry->downstreams) {
    ++stats_.nacks_sent;
    send_nack(downstream.face, nack);
  }
  pit_erase(name_hash, nack.interest.name);
  ++stats_.pit_nack_erased;
}

Forwarder::FibEntry* Forwarder::fib_lookup(const ndn::Name& name) {
  for (std::size_t len = name.size() + 1; len-- > 0;) {
    const auto it = fib_.find(name.prefix(len));
    if (it != fib_.end()) return &it->second;
  }
  return nullptr;
}

std::vector<FaceId> Forwarder::select_next_hops(FibEntry& entry, FaceId in_face) {
  std::vector<FaceId> out;
  switch (config_.strategy) {
    case ForwardingStrategy::kBestRoute:
      for (const FaceId face : entry.next_hops) {
        if (face == in_face) continue;
        out.push_back(face);
        break;
      }
      break;
    case ForwardingStrategy::kRoundRobin:
      for (std::size_t i = 0; i < entry.next_hops.size(); ++i) {
        const FaceId face =
            entry.next_hops[(entry.round_robin_cursor + i) % entry.next_hops.size()];
        if (face == in_face) continue;
        out.push_back(face);
        entry.round_robin_cursor =
            (entry.round_robin_cursor + i + 1) % entry.next_hops.size();
        break;
      }
      break;
    case ForwardingStrategy::kMulticast:
      for (const FaceId face : entry.next_hops)
        if (face != in_face) out.push_back(face);
      break;
  }
  return out;
}

void Forwarder::schedule_pit_timeout(const ndn::Name& name, std::uint64_t name_hash,
                                     std::uint64_t version, util::SimDuration lifetime) {
  scheduler().schedule_in(lifetime, [this, name, name_hash, version] {
    const PitEntry* entry = pit_find(name_hash, name);
    if (entry != nullptr && entry->version == version) {
      // The timer was armed for exactly this entry's lifetime; firing at
      // any other instant means the expiry bookkeeping drifted.
      NDNP_INVARIANT_CHECK("forwarder", now() == entry->expires_at,
                           "expiry timer for %s fired at %lld, entry expires at %lld",
                           name.to_uri().c_str(), static_cast<long long>(now()),
                           static_cast<long long>(entry->expires_at));
      pit_erase(name_hash, name);
      ++stats_.pit_expirations;
      NDNP_TRACE_EVENT(util::TraceEventType::kPitExpire, this->name(), now(), name.to_uri());
    }
  });
}

void Forwarder::export_metrics(util::MetricsSnapshot& snap, const std::string& prefix) const {
  snap.counters[prefix + ".interests_received"] += stats_.interests_received;
  snap.counters[prefix + ".data_received"] += stats_.data_received;
  engine_.stats().export_outcomes(snap, prefix);
  snap.counters[prefix + ".forwarded_interests"] += stats_.forwarded_interests;
  snap.counters[prefix + ".collapsed_interests"] += stats_.collapsed_interests;
  snap.counters[prefix + ".nonce_drops"] += stats_.nonce_drops;
  snap.counters[prefix + ".scope_drops"] += stats_.scope_drops;
  snap.counters[prefix + ".no_route_drops"] += stats_.no_route_drops;
  snap.counters[prefix + ".pit_overflows"] += stats_.pit_overflows;
  snap.counters[prefix + ".admission_skips"] += stats_.admission_skips;
  snap.counters[prefix + ".nacks_sent"] += stats_.nacks_sent;
  snap.counters[prefix + ".nacks_received"] += stats_.nacks_received;
  snap.counters[prefix + ".unsolicited_data"] += stats_.unsolicited_data;
  snap.counters[prefix + ".pit_expirations"] += stats_.pit_expirations;
  snap.counters[prefix + ".data_forwarded"] += stats_.data_forwarded;
  snap.counters[prefix + ".pit_size"] += pit_.size();
  snap.counters[prefix + ".pit_inserts"] += stats_.pit_inserts;
  snap.counters[prefix + ".pit_satisfied"] += stats_.pit_satisfied;
  snap.counters[prefix + ".pit_nack_erased"] += stats_.pit_nack_erased;
  cs().export_metrics(snap, prefix + ".cs");
  policy().export_metrics(snap, prefix + ".policy");
  export_fault_metrics(snap, prefix);
  if (telemetry_ != nullptr) telemetry_->export_metrics(snap, prefix + ".telemetry");
}

void Forwarder::check_invariants() const {
  // PIT entry conservation: every insert left the table through exactly one
  // of Data satisfaction, lifetime expiry or a NACK, or is still resident.
  NDNP_INVARIANT_CHECK("forwarder",
                       stats_.pit_inserts == stats_.pit_satisfied + stats_.pit_expirations +
                                                 stats_.pit_nack_erased + pit_.size(),
                       "%s: pit_inserts=%llu != satisfied=%llu + expired=%llu + "
                       "nack_erased=%llu + resident=%zu",
                       name().c_str(), static_cast<unsigned long long>(stats_.pit_inserts),
                       static_cast<unsigned long long>(stats_.pit_satisfied),
                       static_cast<unsigned long long>(stats_.pit_expirations),
                       static_cast<unsigned long long>(stats_.pit_nack_erased), pit_.size());
  // Interest disposition: at quiescence every received interest was
  // resolved through exactly one of the handler's exit paths.
  const core::EngineStats& outcomes = engine_.stats();
  const std::uint64_t dispositions =
      stats_.nonce_drops + outcomes.exposed_hits + outcomes.delayed_hits +
      stats_.collapsed_interests + stats_.scope_drops + stats_.no_route_drops +
      stats_.pit_overflows + stats_.pit_inserts;
  NDNP_INVARIANT_CHECK("forwarder", stats_.interests_received == dispositions,
                       "%s: interests_received=%llu != dispositions=%llu", name().c_str(),
                       static_cast<unsigned long long>(stats_.interests_received),
                       static_cast<unsigned long long>(dispositions));
  cs().check_integrity();
  check_face_conservation();
}

}  // namespace ndnp::sim
