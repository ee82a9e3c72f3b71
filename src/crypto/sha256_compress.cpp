#include "crypto/sha256_compress.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ndnp::crypto {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

[[nodiscard]] constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

void compress_portable(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                       std::size_t nblocks) noexcept {
  for (; nblocks > 0; --nblocks, data += kSha256BlockSize) {
    std::array<std::uint32_t, 64> w;
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

// The SHA extensions keep the eight working variables as two vectors,
// ABEF and CDGH; each SHA256RNDS2 runs two rounds, so four message words
// (one vector of W[t] + K[t]) feed a pair of them. SHA256MSG1/MSG2 compute
// the message schedule four words at a time: the vector for rounds
// 4(i+1)..4(i+1)+3 is finished while rounds 4i..4i+3 run.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* data, std::size_t nblocks) noexcept {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));  // DCBA
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                                            // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);                                          // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);                                  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);                                       // CDGH

  for (; nblocks > 0; --nblocks, data += kSha256BlockSize) {
    const __m128i abef_saved = abef;
    const __m128i cdgh_saved = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (std::size_t i = 0; i < 16; ++i) {
      __m128i& cur = w[i % 4];
      if (i < 4)
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), kByteSwap);
      __m128i wk = _mm_add_epi32(
          cur, _mm_load_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * i])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      __m128i& prev = w[(i + 3) % 4];
      if (i >= 3 && i <= 14) {
        // W[4(i+1)..] from W[4(i-3)..] (already through MSG1), W[4i-3..4i] and W[4i..].
        __m128i& next = w[(i + 1) % 4];
        next = _mm_sha256msg2_epu32(_mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur);
      }
      if (i >= 1 && i <= 12) prev = _mm_sha256msg1_epu32(prev, cur);
    }
    abef = _mm_add_epi32(abef, abef_saved);
    cdgh = _mm_add_epi32(cdgh, cdgh_saved);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);       // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);      // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);   // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);      // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}

#endif  // __x86_64__

bool cpu_has_sha_extensions() noexcept {
#if defined(__x86_64__)
  // Explicit init: this may run before libgcc's own CPU-model constructor.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
#else
  return false;
#endif
}

namespace {

[[nodiscard]] Sha256Compress select_compress() noexcept {
#if defined(__x86_64__)
  if (cpu_has_sha_extensions()) return compress_shani;
#endif
  return compress_portable;
}

// Constant-initialised, so a Sha256 built during another translation
// unit's static initialisation reads the portable function; the dynamic
// initialiser below swaps in the CPU's choice once, before main().
Sha256Compress g_compress = compress_portable;
[[maybe_unused]] const bool g_compress_selected = (g_compress = select_compress(), true);

}  // namespace

Sha256Compress dispatched_compress() noexcept { return g_compress; }

}  // namespace ndnp::crypto
