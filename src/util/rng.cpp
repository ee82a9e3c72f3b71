#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace ndnp::util {

namespace {

[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

Xoshiro256::result_type Xoshiro256::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256::jump() noexcept {
  static constexpr std::uint64_t kJump[] = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                            0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s_[i];
      }
      (void)next();
    }
  }
  s_ = acc;
}

Rng Rng::fork() noexcept {
  // A fresh generator seeded from this stream; SplitMix64 inside the
  // Xoshiro256 constructor decorrelates nearby seeds.
  return Rng(next_u64());
}

std::uint64_t Rng::uniform_u64(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire's method: multiply into 128 bits and reject the biased sliver.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_i64(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 2^64 range (lo = INT64_MIN, hi = INT64_MAX).
  const std::uint64_t draw = (span == 0) ? next_u64() : uniform_u64(span);
  return lo + static_cast<std::int64_t>(draw);
}

double Rng::uniform01() noexcept {
  // 53 random bits scaled into [0,1); the canonical doubles construction.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform01(); }

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::exponential(double lambda) noexcept {
  assert(lambda > 0.0);
  // Inverse CDF; 1 - U avoids log(0).
  return -std::log(1.0 - uniform01()) / lambda;
}

double Rng::normal(double mean, double stddev) noexcept {
  // Box-Muller, using only one of the pair so the generator state advances
  // by a fixed amount per call.
  const double u1 = 1.0 - uniform01();
  const double u2 = uniform01();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
  return mean + stddev * z;
}

double Rng::lognormal(double mu, double sigma) noexcept { return std::exp(normal(mu, sigma)); }

std::uint64_t Rng::geometric(double alpha) noexcept {
  assert(alpha > 0.0 && alpha < 1.0);
  // Inverse CDF: floor(log(U) / log(alpha)).
  const double u = 1.0 - uniform01();  // in (0, 1]
  const double k = std::floor(std::log(u) / std::log(alpha));
  return k < 0.0 ? 0 : static_cast<std::uint64_t>(k);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : s_(s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be positive");
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("ZipfSampler: n must fit in 32 bits");
  if (s < 0.0) throw std::invalid_argument("ZipfSampler: exponent must be non-negative");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t r = 1; r <= n; ++r) {
    acc += std::pow(static_cast<double>(r), -s);
    cdf_[r - 1] = acc;
  }
  const double total = acc;
  for (double& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // guard against rounding leaving the last bin short

  // guide_[j] = first index with cdf_[i] >= j/m. The edges j/m are exact
  // doubles because m is a power of two, and cdf_.back() == 1 >= j/m ends
  // every scan.
  const std::size_t m = std::bit_floor(std::max<std::size_t>(n / 8, 1));
  const double edge_step = 1.0 / static_cast<double>(m);
  guide_.resize(m + 1);
  std::size_t i = 0;
  for (std::size_t j = 0; j <= m; ++j) {
    const double edge = static_cast<double>(j) * edge_step;
    while (cdf_[i] < edge) ++i;
    guide_[j] = static_cast<std::uint32_t>(i);
  }
}

std::size_t ZipfSampler::rank_at(double u) const noexcept {
  assert(u >= 0.0 && u < 1.0);
  // u * m is exact (m is a power of two), so u lies in [j/m, (j+1)/m) and
  // its rank index in [guide_[j], guide_[j+1]]: every entry before
  // guide_[j] is < j/m <= u, and cdf_[guide_[j+1]] >= (j+1)/m > u.
  // A bucket holds n/m (8 to 16) entries on average, so a linear scan beats a
  // binary search's mispredicted branches.
  const auto j = static_cast<std::size_t>(u * static_cast<double>(guide_.size() - 1));
  std::size_t i = guide_[j];
  const std::size_t last = guide_[j + 1];
  while (i < last && cdf_[i] < u) ++i;
  return i + 1;
}

double ZipfSampler::pmf(std::size_t rank) const {
  if (rank == 0 || rank > cdf_.size()) throw std::out_of_range("ZipfSampler::pmf rank");
  const double hi = cdf_[rank - 1];
  const double lo = rank == 1 ? 0.0 : cdf_[rank - 2];
  return hi - lo;
}

}  // namespace ndnp::util
