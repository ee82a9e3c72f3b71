// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for (a) simulated producer signatures on Data packets (the paper
// notes every NDN content object is signed, which is what makes producers
// identifiable to the adversary), and (b) as the compression function under
// HMAC for the "mutual" unpredictable-name countermeasure of Section V-A.
//
// The block compression is picked once per process from CPUID: the x86 SHA
// extensions where the CPU has them, else a portable scalar loop
// (crypto/sha256_compress.hpp). Both give identical digests; the test
// suite runs the NIST FIPS 180-4 vectors and a randomized differential
// check through each one.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace ndnp::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Folds `nblocks` consecutive 64-byte blocks at `data` into `state`.
using Sha256Compress = void (*)(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                                std::size_t nblocks) noexcept;

/// Incremental SHA-256 context. Typical use:
///   Sha256 h; h.update(a); h.update(b); auto d = h.finish();
/// finish() may be called once; the object is then spent.
class Sha256 {
 public:
  /// Uses the compression chosen for this CPU.
  Sha256() noexcept;
  /// Pins the compression (tests and benches compare the implementations).
  explicit Sha256(Sha256Compress compress) noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept;

  /// Finalizes padding and returns the digest. Must be called exactly once.
  [[nodiscard]] Sha256Digest finish() noexcept;

  /// One-shot helpers.
  [[nodiscard]] static Sha256Digest hash(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] static Sha256Digest hash(std::string_view data) noexcept;

 private:
  Sha256Compress compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kSha256BlockSize> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Lower-case hex encoding of arbitrary bytes.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> bytes);

/// First `n` hex characters of the digest — compact unique tokens for
/// name components (n must be <= 64).
[[nodiscard]] std::string digest_prefix_hex(const Sha256Digest& digest, std::size_t n);

}  // namespace ndnp::crypto
