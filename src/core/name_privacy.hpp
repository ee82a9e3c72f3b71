// Unpredictable-name countermeasure for interactive traffic (Section V-A,
// the "mutual" approach).
//
// Producer and consumer share a secret and derive, per content, a random-
// looking name component `rand` via a PRF (HMAC-SHA-256 here). The router
// keeps caching normally — re-issued interests after packet loss still hit
// the nearest cache — but an adversary who cannot eavesdrop cannot guess
// the name and therefore cannot probe the cache for it. Content created
// this way is exact-match-only (footnote 5: it must not satisfy interests
// for its prefix).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/hmac.hpp"
#include "ndn/packet.hpp"

namespace ndnp::core {

/// One direction of an interactive session (e.g. Alice->Bob audio). Both
/// endpoints construct the same object from the shared secret and derive
/// identical per-sequence names independently.
class UnpredictableNameSession {
 public:
  /// `base` is the routable prefix (e.g. "/alice/skype/0"); `secret` the
  /// out-of-band shared key; `label` separates directions/streams using
  /// one secret.
  UnpredictableNameSession(ndn::Name base, std::string_view secret, std::string label,
                           std::size_t token_hex_chars = 32);

  /// Full content name for sequence number `seq`: base / seq / rand.
  /// Deterministic: both parties compute the same name.
  [[nodiscard]] ndn::Name name_for(std::uint64_t seq) const;

  /// Interest for sequence `seq` (exact name, fresh nonce supplied by the
  /// caller's transport).
  [[nodiscard]] ndn::Interest interest_for(std::uint64_t seq, std::uint64_t nonce) const;

  /// Producer-side: wrap a payload in a Data packet under the
  /// unpredictable name, flagged exact-match-only so routers never return
  /// it for shorter-prefix interests.
  [[nodiscard]] ndn::Data data_for(std::uint64_t seq, std::string payload,
                                   std::string producer, ndn::SigningKey producer_key) const;

  [[nodiscard]] const ndn::Name& base() const noexcept { return base_; }

 private:
  ndn::Name base_;
  crypto::Prf prf_;
  std::string label_;
  std::size_t token_hex_chars_;
};

}  // namespace ndnp::core
