#include "sim/apps.hpp"

#include <algorithm>
#include <optional>

#include "util/logging.hpp"

namespace ndnp::sim {

// ---------------------------------------------------------------------------
// Consumer

Consumer::Consumer(Scheduler& scheduler, std::string name, std::uint64_t seed)
    : Node(scheduler, std::move(name), seed) {}

void Consumer::express_interest(ndn::Interest interest, FetchCallback on_data, FaceId face,
                                util::SimDuration timeout, TimeoutCallback on_timeout,
                                NackCallback on_nack) {
  if (interest.nonce == 0) interest.nonce = make_nonce();
  Pending pending;
  pending.id = next_id_++;
  pending.interest = interest;
  pending.sent_at = now();
  pending.on_data = std::move(on_data);
  pending.on_timeout = std::move(on_timeout);
  pending.on_nack = std::move(on_nack);
  const std::uint64_t id = pending.id;
  ndn::Name key = interest.name;
  pending_[key].push_back(std::move(pending));
  ++pending_count_;

  if (timeout > 0) {
    // A moved-in (non-const) Name keeps the closure nothrow-movable, so it
    // fits the scheduler's inline event buffer.
    scheduler().schedule_in(timeout, [this, key = std::move(key), id] {
      const auto map_it = pending_.find(key);
      if (map_it == pending_.end()) return;
      auto& list = map_it->second;
      const auto it = std::find_if(list.begin(), list.end(),
                                   [id](const Pending& p) { return p.id == id; });
      if (it == list.end()) return;
      Pending expired = std::move(*it);
      list.erase(it);
      if (list.empty()) pending_.erase(map_it);
      --pending_count_;
      ++timeouts_;
      if (expired.on_timeout) expired.on_timeout(expired.interest);
    });
  }

  send_interest(face, interest);
}

void Consumer::fetch(const ndn::Name& name, FetchCallback on_data, FaceId face) {
  ndn::Interest interest;
  interest.name = name;
  express_interest(std::move(interest), std::move(on_data), face);
}

void Consumer::receive_interest(const ndn::Interest& interest, FaceId) {
  // Consumers do not serve content.
  util::log(util::LogLevel::kDebug, "%s: ignoring interest %s", name().c_str(),
            interest.name.to_uri().c_str());
}

void Consumer::receive_data(const ndn::Data& data, FaceId) {
  ++data_received_;
  // Candidate pending interests are exactly the prefixes of the data name.
  // Matches are collected first and their callbacks run after the walk, in
  // match order. One match is the common case: it waits in `first`, and
  // only a second one starts the `more` list, so it allocates nothing.
  std::optional<Pending> first;
  std::vector<Pending> more;
  for (std::size_t len = 0; len <= data.name.size(); ++len) {
    const auto map_it = pending_.find(data.name.prefix(len));
    if (map_it == pending_.end()) continue;
    auto& list = map_it->second;
    for (auto it = list.begin(); it != list.end();) {
      if (data.satisfies(it->interest)) {
        if (first)
          more.push_back(std::move(*it));
        else
          first.emplace(std::move(*it));
        it = list.erase(it);
        --pending_count_;
      } else {
        ++it;
      }
    }
    if (list.empty()) pending_.erase(map_it);
  }
  if (!first) return;
  if (first->on_data) first->on_data(data, now() - first->sent_at);
  for (Pending& pending : more)
    if (pending.on_data) pending.on_data(data, now() - pending.sent_at);
}

void Consumer::receive_nack(const ndn::Nack& nack, FaceId) {
  ++nacks_received_;
  const auto map_it = pending_.find(nack.interest.name);
  if (map_it == pending_.end()) return;
  auto& list = map_it->second;
  // Prefer the exact nonce; fall back to the oldest pending for the name.
  auto it = std::find_if(list.begin(), list.end(), [&nack](const Pending& p) {
    return p.interest.nonce == nack.interest.nonce;
  });
  if (it == list.end()) it = list.begin();
  Pending rejected = std::move(*it);
  list.erase(it);
  if (list.empty()) pending_.erase(map_it);
  --pending_count_;
  if (rejected.on_nack) rejected.on_nack(nack);
}

// ---------------------------------------------------------------------------
// Producer

Producer::Producer(Scheduler& scheduler, std::string name, ndn::Name prefix,
                   std::string signing_key, ProducerConfig config, std::uint64_t seed)
    : Node(scheduler, std::move(name), seed),
      prefix_(std::move(prefix)),
      signing_key_(std::move(signing_key)),
      config_(config),
      auto_payload_(config.auto_generate ? std::string(config.payload_size, 'x')
                                         : std::string()) {}

void Producer::publish(ndn::Data data) {
  ndn::Name key = data.name;
  repo_.insert_or_assign(std::move(key), std::move(data));
}

const ndn::Data* Producer::lookup_repo(const ndn::Interest& interest) const {
  // Exact match first, then the canonical smallest prefix-match.
  if (const auto it = repo_.find(interest.name);
      it != repo_.end() && it->second.satisfies(interest))
    return &it->second;
  for (auto it = repo_.lower_bound(interest.name); it != repo_.end(); ++it) {
    if (!interest.name.is_prefix_of(it->first)) break;
    if (it->second.satisfies(interest)) return &it->second;
  }
  return nullptr;
}

void Producer::receive_interest(const ndn::Interest& interest, FaceId in_face) {
  if (!prefix_.is_prefix_of(interest.name)) {
    ++interests_unmatched_;
    return;
  }

  ndn::Data response;
  if (const ndn::Data* found = lookup_repo(interest)) {
    response = *found;
  } else if (config_.auto_generate) {
    response = ndn::make_data(interest.name, auto_payload_, name(), signing_key_,
                              config_.mark_private);
    if (config_.group_namespace_len > 0)
      response.group_id = interest.name.prefix(config_.group_namespace_len).to_uri();
  } else {
    ++interests_unmatched_;
    return;
  }

  ++interests_served_;
  // A pooled handle keeps the capture within the scheduler's inline event
  // buffer; a captured Data would not fit and would allocate per response.
  scheduler().schedule_in(config_.processing_delay,
                          [this, in_face, held = pooled_copy(response)] {
                            send_data(in_face, *held);
                          });
}

void Producer::receive_data(const ndn::Data& data, FaceId) {
  util::log(util::LogLevel::kDebug, "%s: ignoring data %s", name().c_str(),
            data.name.to_uri().c_str());
}

}  // namespace ndnp::sim
