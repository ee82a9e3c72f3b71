#include "core/name_privacy.hpp"

#include <stdexcept>

namespace ndnp::core {

UnpredictableNameSession::UnpredictableNameSession(ndn::Name base, std::string_view secret,
                                                   std::string label,
                                                   std::size_t token_hex_chars)
    : base_(std::move(base)),
      prf_(secret),
      label_(std::move(label)),
      token_hex_chars_(token_hex_chars) {
  if (token_hex_chars_ == 0 || token_hex_chars_ > 64)
    throw std::invalid_argument("UnpredictableNameSession: token length must be in [1,64]");
}

ndn::Name UnpredictableNameSession::name_for(std::uint64_t seq) const {
  const std::string rand = prf_.derive_token(label_, seq, token_hex_chars_);
  return base_.append_number(seq).append(rand);
}

ndn::Interest UnpredictableNameSession::interest_for(std::uint64_t seq,
                                                     std::uint64_t nonce) const {
  ndn::Interest interest;
  interest.name = name_for(seq);
  interest.nonce = nonce;
  return interest;
}

ndn::Data UnpredictableNameSession::data_for(std::uint64_t seq, std::string payload,
                                             std::string producer,
                                             ndn::SigningKey producer_key) const {
  ndn::Data data = ndn::make_data(name_for(seq), std::move(payload), std::move(producer),
                                  std::move(producer_key));
  data.exact_match_only = true;
  return data;
}

}  // namespace ndnp::core
