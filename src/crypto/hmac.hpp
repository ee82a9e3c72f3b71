// HMAC-SHA-256 (RFC 2104 / FIPS 198-1) and the keyed PRF built on it.
//
// The paper's interactive-traffic countermeasure (Section V-A) has producer
// and consumer derive per-content unpredictable name components from a
// shared secret using "a pseudo-random function (e.g., a keyed
// cryptographic hash, such as HMAC)". `Prf` below is exactly that
// construction; `NameRandomizer` (in core/) turns its output into name
// components.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "crypto/sha256.hpp"

namespace ndnp::crypto {

/// Incremental HMAC-SHA-256 (any key length; keys longer than the block
/// size are hashed first, per the spec). Typical use:
///   HmacSha256 mac(key); mac.update(a); mac.update(b); auto tag = mac.finish();
/// A keyed object may be copied to MAC several messages under one key
/// without re-deriving the pads. finish() may be called once per object.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key) noexcept;
  explicit HmacSha256(std::string_view key) noexcept;

  void update(std::span<const std::uint8_t> data) noexcept { inner_.update(data); }
  void update(std::string_view data) noexcept { inner_.update(data); }

  [[nodiscard]] Sha256Digest finish() noexcept;

 private:
  Sha256 inner_;  // has absorbed key ^ ipad
  Sha256 outer_;  // has absorbed key ^ opad
};

/// One-shot HMAC-SHA-256 over `data` with `key`.
[[nodiscard]] Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                                       std::span<const std::uint8_t> data) noexcept;

[[nodiscard]] Sha256Digest hmac_sha256(std::string_view key, std::string_view data) noexcept;

/// Deterministic keyed PRF: PRF_k(label, counter) = HMAC-SHA256(k,
/// label || 0x00 || counter_be64). The label/counter domain separation lets
/// one shared secret drive independent sequences (e.g. one per direction of
/// a VoIP session).
class Prf {
 public:
  explicit Prf(std::string_view key) noexcept : keyed_(key) {}
  explicit Prf(std::span<const std::uint8_t> key) noexcept : keyed_(key) {}

  [[nodiscard]] Sha256Digest derive(std::string_view label, std::uint64_t counter) const noexcept;

  /// Convenience: first `hex_chars` hex characters of derive() — the
  /// "rand" name component format used throughout the examples/tests.
  [[nodiscard]] std::string derive_token(std::string_view label, std::uint64_t counter,
                                         std::size_t hex_chars = 32) const;

 private:
  HmacSha256 keyed_;  // copied per derive(), never finished itself
};

/// Simulated producer signature: HMAC tag binding producer identity, name
/// and payload. Stands in for the per-packet public-key signatures that
/// real NDN uses (scheme identity is irrelevant to cache privacy; what
/// matters is that content carries a producer-identifying tag).
[[nodiscard]] Sha256Digest sign_content(std::string_view producer_key, std::string_view name,
                                        std::string_view payload) noexcept;

/// Verify a simulated signature.
[[nodiscard]] bool verify_content(std::string_view producer_key, std::string_view name,
                                  std::string_view payload, const Sha256Digest& sig) noexcept;

}  // namespace ndnp::crypto
