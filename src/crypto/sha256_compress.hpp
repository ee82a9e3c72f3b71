// SHA-256 block compression functions (internal to crypto/).
//
// `Sha256` hands whole 64-byte blocks to one of these. Both have the same
// contract: fold `nblocks` consecutive blocks at `data` into `state`.
// `compress_portable` is the scalar FIPS 180-4 reference and the fallback;
// `compress_shani` uses the x86 SHA extensions and exists only on x86-64.
// `Sha256`'s default constructor takes the one `dispatched_compress()`
// picked from CPUID; the tests and benches call each one directly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/sha256.hpp"

namespace ndnp::crypto {

void compress_portable(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                       std::size_t nblocks) noexcept;

#if defined(__x86_64__)
/// Requires a CPU with SHA, SSE4.1 and SSSE3 (`cpu_has_sha_extensions()`).
void compress_shani(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                    std::size_t nblocks) noexcept;
#endif

/// True when this CPU can run `compress_shani`; always false off x86-64.
[[nodiscard]] bool cpu_has_sha_extensions() noexcept;

/// The compression `Sha256()` uses: chosen once per process from CPUID,
/// and `compress_portable` if read before that choice is made.
[[nodiscard]] Sha256Compress dispatched_compress() noexcept;

}  // namespace ndnp::crypto
