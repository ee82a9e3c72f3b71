#include "crypto/hmac.hpp"

#include <algorithm>
#include <array>
#include <charconv>

namespace ndnp::crypto {

namespace {

[[nodiscard]] std::span<const std::uint8_t> as_bytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) noexcept {
  std::array<std::uint8_t, kSha256BlockSize> block_key{};
  if (key.size() > kSha256BlockSize) {
    const Sha256Digest hashed = Sha256::hash(key);
    std::copy(hashed.begin(), hashed.end(), block_key.begin());
  } else {
    std::copy(key.begin(), key.end(), block_key.begin());
  }

  std::array<std::uint8_t, kSha256BlockSize> pad{};
  for (std::size_t i = 0; i < kSha256BlockSize; ++i)
    pad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x36);
  inner_.update(pad);
  for (std::size_t i = 0; i < kSha256BlockSize; ++i)
    pad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x5c);
  outer_.update(pad);
}

HmacSha256::HmacSha256(std::string_view key) noexcept : HmacSha256(as_bytes(key)) {}

Sha256Digest HmacSha256::finish() noexcept {
  outer_.update(inner_.finish());
  return outer_.finish();
}

Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> data) noexcept {
  HmacSha256 mac(key);
  mac.update(data);
  return mac.finish();
}

Sha256Digest hmac_sha256(std::string_view key, std::string_view data) noexcept {
  return hmac_sha256(as_bytes(key), as_bytes(data));
}

Sha256Digest Prf::derive(std::string_view label, std::uint64_t counter) const noexcept {
  // 0x00 domain separator: labels cannot collide with counters.
  std::array<std::uint8_t, 9> suffix{};
  for (std::size_t i = 0; i < 8; ++i)
    suffix[1 + i] = static_cast<std::uint8_t>(counter >> (56 - 8 * i));
  HmacSha256 mac = keyed_;
  mac.update(label);
  mac.update(suffix);
  return mac.finish();
}

std::string Prf::derive_token(std::string_view label, std::uint64_t counter,
                              std::size_t hex_chars) const {
  return digest_prefix_hex(derive(label, counter), hex_chars);
}

Sha256Digest sign_content(std::string_view producer_key, std::string_view name,
                          std::string_view payload) noexcept {
  // "<name_len>:" prefix gives an injective encoding of (name, payload).
  std::array<char, 24> prefix{};
  char* end = std::to_chars(prefix.data(), prefix.data() + prefix.size() - 1, name.size()).ptr;
  *end++ = ':';
  HmacSha256 mac(producer_key);
  mac.update(std::string_view(prefix.data(), static_cast<std::size_t>(end - prefix.data())));
  mac.update(name);
  mac.update(payload);
  return mac.finish();
}

bool verify_content(std::string_view producer_key, std::string_view name, std::string_view payload,
                    const Sha256Digest& sig) noexcept {
  const Sha256Digest expected = sign_content(producer_key, name, payload);
  // Constant-time comparison, as one would in production code.
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < expected.size(); ++i)
    diff = static_cast<std::uint8_t>(diff | (expected[i] ^ sig[i]));
  return diff == 0;
}

}  // namespace ndnp::crypto
