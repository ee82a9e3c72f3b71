// End-host applications: Consumer and Producer.
//
// Consumer issues interests and reports the Data plus the measured RTT to a
// callback — RTT measurement is all the paper's adversary needs. Producer
// owns a namespace and serves content from a published repository or by
// auto-generating it, optionally marked private (producer-driven marking,
// Section V).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/node.hpp"

namespace ndnp::sim {

class Consumer final : public Node {
 public:
  using FetchCallback = std::function<void(const ndn::Data&, util::SimDuration rtt)>;
  using TimeoutCallback = std::function<void(const ndn::Interest&)>;
  using NackCallback = std::function<void(const ndn::Nack&)>;

  Consumer(Scheduler& scheduler, std::string name, std::uint64_t seed);

  /// Send `interest` out of `face`; `on_data` fires with the round-trip
  /// time when matching Data arrives. A zero `timeout` disables timeout
  /// handling; otherwise `on_timeout` (if set) fires once when the
  /// deadline passes unanswered.
  /// `on_nack` (optional) fires if the network rejects the interest with a
  /// NACK before any Data arrives.
  void express_interest(ndn::Interest interest, FetchCallback on_data, FaceId face = 0,
                        util::SimDuration timeout = 0, TimeoutCallback on_timeout = {},
                        NackCallback on_nack = {});

  /// Convenience: plain interest for `name` (fresh nonce, no flags).
  void fetch(const ndn::Name& name, FetchCallback on_data, FaceId face = 0);

  /// Fresh random nonce.
  [[nodiscard]] std::uint64_t make_nonce() noexcept { return rng().next_u64(); }

  void receive_interest(const ndn::Interest& interest, FaceId in_face) override;
  void receive_data(const ndn::Data& data, FaceId in_face) override;
  void receive_nack(const ndn::Nack& nack, FaceId in_face) override;

  [[nodiscard]] std::size_t outstanding() const noexcept { return pending_count_; }
  [[nodiscard]] std::uint64_t data_received() const noexcept { return data_received_; }
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
  [[nodiscard]] std::uint64_t nacks_received() const noexcept { return nacks_received_; }

 private:
  struct Pending {
    std::uint64_t id = 0;
    ndn::Interest interest;
    util::SimTime sent_at = util::kTimeUnset;
    FetchCallback on_data;
    TimeoutCallback on_timeout;
    NackCallback on_nack;
  };

  std::map<ndn::Name, std::vector<Pending>> pending_;
  std::size_t pending_count_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t data_received_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t nacks_received_ = 0;
};

struct ProducerConfig {
  /// Payload bytes for auto-generated content.
  std::size_t payload_size = 1024;
  /// Time to produce/sign a content object.
  util::SimDuration processing_delay = util::micros(50);
  /// Auto-generated content is marked private by the producer.
  bool mark_private = false;
  /// Serve any name under the prefix, generating content on the fly (in
  /// addition to explicitly published objects).
  bool auto_generate = true;
  /// When > 0, auto-generated content gets a correlation group id derived
  /// from this many leading name components (for the grouping experiments).
  std::size_t group_namespace_len = 0;
};

class Producer final : public Node {
 public:
  Producer(Scheduler& scheduler, std::string name, ndn::Name prefix, std::string signing_key,
           ProducerConfig config, std::uint64_t seed);

  /// Register an exact content object served for matching interests.
  void publish(ndn::Data data);

  void receive_interest(const ndn::Interest& interest, FaceId in_face) override;
  void receive_data(const ndn::Data& data, FaceId in_face) override;

  [[nodiscard]] const ndn::Name& prefix() const noexcept { return prefix_; }
  [[nodiscard]] std::uint64_t interests_served() const noexcept { return interests_served_; }
  [[nodiscard]] std::uint64_t interests_unmatched() const noexcept {
    return interests_unmatched_;
  }

 private:
  [[nodiscard]] const ndn::Data* lookup_repo(const ndn::Interest& interest) const;

  ndn::Name prefix_;
  /// Shared by every response, which signs with it only if read.
  ndn::SigningKey signing_key_;
  ProducerConfig config_;
  /// Content of every auto-generated response, built once: responses share
  /// it, so serving costs no payload copy.
  ndn::Payload auto_payload_;
  std::map<ndn::Name, ndn::Data> repo_;
  std::uint64_t interests_served_ = 0;
  std::uint64_t interests_unmatched_ = 0;
};

}  // namespace ndnp::sim
