#include "crypto/sha256.hpp"

#include <cstring>
#include <stdexcept>

#include "crypto/sha256_compress.hpp"

namespace ndnp::crypto {

Sha256::Sha256() noexcept : Sha256(dispatched_compress()) {}

Sha256::Sha256(Sha256Compress compress) noexcept
    : compress_(compress),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(kSha256BlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kSha256BlockSize) {
      compress_(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t nblocks = (data.size() - offset) / kSha256BlockSize;
  if (nblocks > 0) compress_(state_, data.data() + offset, nblocks);
  offset += nblocks * kSha256BlockSize;
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

void Sha256::update(std::string_view data) noexcept {
  update(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(data.data()),
                                       data.size()));
}

Sha256Digest Sha256::finish() noexcept {
  // Append the 0x80 terminator, zeros up to 56 mod 64, then the big-endian
  // 64-bit message length in bits. When the terminator leaves no room for
  // the length, the padding spills into a second block.
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kSha256BlockSize - 8) {
    std::memset(buffer_.data() + buffer_len_, 0, kSha256BlockSize - buffer_len_);
    compress_(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, kSha256BlockSize - 8 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i)
    buffer_[kSha256BlockSize - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  compress_(state_, buffer_.data(), 1);
  buffer_len_ = 0;

  Sha256Digest digest{};
  for (std::size_t i = 0; i < 8; ++i) {
    digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest Sha256::hash(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0x0f]);
  }
  return out;
}

std::string digest_prefix_hex(const Sha256Digest& digest, std::size_t n) {
  if (n > 2 * kSha256DigestSize)
    throw std::invalid_argument("digest_prefix_hex: at most 64 hex chars available");
  std::string full = to_hex(digest);
  full.resize(n);
  return full;
}

}  // namespace ndnp::crypto
