#include "ndn/packet.hpp"

#include <mutex>

#include "crypto/hmac.hpp"

namespace ndnp::ndn {

bool name_marked_private(const Name& name) noexcept {
  return !name.empty() && name.last() == kPrivateNameComponent;
}

std::size_t Interest::wire_size() const noexcept {
  // TLV framing (~8 bytes) + name components (1 byte framing each) +
  // nonce (8) + optional scope (2) + optional lifetime (4) + flags (1).
  std::size_t size = 8 + 8 + 1 + (scope ? 2 : 0) + (lifetime ? 4 : 0);
  for (const std::string_view c : name.components()) size += 1 + c.size();
  return size;
}

struct Signature::State {
  Name name;
  Payload payload;
  SigningKey key;
  std::once_flag once;
  crypto::Sha256Digest value{};
};

Signature::Signature(const crypto::Sha256Digest& bytes) : state_(std::make_shared<State>()) {
  state_->value = bytes;
  std::call_once(state_->once, [] {});  // nothing left to compute
}

Signature::Signature(Name name, Payload payload, SigningKey key)
    : state_(std::make_shared<State>(std::move(name), std::move(payload), std::move(key))) {}

const crypto::Sha256Digest& Signature::value() const {
  static constexpr crypto::Sha256Digest kUnsigned{};
  if (!state_) return kUnsigned;
  State& state = *state_;
  std::call_once(state.once, [&state] {
    state.value =
        crypto::sign_content(state.key.view(), state.name.to_uri(), state.payload.view());
  });
  return state.value;
}

bool Data::satisfies(const Interest& interest) const noexcept {
  if (exact_match_only) return interest.name == name;
  return interest.name.is_prefix_of(name);
}

std::size_t Data::wire_size() const noexcept {
  std::size_t size = 16 + payload.size() + producer.size() + signature.size() + 2;
  for (const std::string_view c : name.components()) size += 1 + c.size();
  return size;
}

std::string_view to_string(NackReason reason) noexcept {
  switch (reason) {
    case NackReason::kNoRoute: return "no-route";
    case NackReason::kPitOverflow: return "pit-overflow";
    case NackReason::kDuplicate: return "duplicate";
  }
  return "?";
}

Data make_data(Name name, Payload payload, std::string producer, SigningKey producer_key,
               bool producer_private) {
  Data data;
  data.signature = Signature(name, payload, std::move(producer_key));
  data.name = std::move(name);
  data.payload = std::move(payload);
  data.producer = std::move(producer);
  data.producer_private = producer_private;
  return data;
}

}  // namespace ndnp::ndn
