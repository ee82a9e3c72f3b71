// Deterministic random number generation.
//
// Every stochastic component in this repository draws randomness through
// `Rng`, a xoshiro256** generator seeded explicitly by the caller. This
// guarantees bit-reproducible experiments: the same seed always yields the
// same trace, the same jitter and the same Random-Cache draws, regardless
// of platform or standard-library version (std::<distribution> results are
// implementation-defined, so all distributions are implemented here).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ndnp::util {

/// SplitMix64: used to expand a single 64-bit seed into generator state and
/// to derive independent child seeds. Passes BigCrush when used alone.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 256-bit-state PRNG (Blackman/Vigna).
/// Satisfies the UniformRandomBitGenerator concept.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Jump function: advances the state by 2^128 steps, equivalent to that
  /// many next() calls. Used to split one generator into non-overlapping
  /// streams.
  void jump() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// High-level deterministic RNG with the distributions this project needs.
/// All methods are cheap; the object is freely copyable (copies diverge).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : gen_(seed) {}

  /// Derive an independent child RNG; successive calls give distinct
  /// streams. Useful for giving each link / user / policy its own stream so
  /// that adding a component does not perturb others' draws.
  [[nodiscard]] Rng fork() noexcept;

  [[nodiscard]] std::uint64_t next_u64() noexcept { return gen_.next(); }

  /// Uniform integer in [0, bound). Requires bound > 0. Uses Lemire's
  /// unbiased multiply-shift rejection method.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_i64(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Exponential with rate lambda (> 0); mean 1/lambda.
  [[nodiscard]] double exponential(double lambda) noexcept;

  /// Standard normal via Box-Muller (no cached spare: keeps state minimal
  /// and fork()/copy semantics exact).
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Log-normal: exp(N(mu, sigma)). Used for WAN jitter tails.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Geometric on {0,1,2,...} with success probability 1-alpha, i.e.
  /// Pr[X=k] = (1-alpha) * alpha^k. Requires 0 < alpha < 1.
  [[nodiscard]] std::uint64_t geometric(double alpha) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_u64(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  Xoshiro256 gen_;
};

/// Zipf(s) sampler over ranks {1, ..., n}: Pr[X=r] proportional to r^-s.
/// Precomputes the CDF once (O(n) memory) and samples by inversion. A guide
/// table (the cutpoint method of Chen & Asau, 1974) narrows each inversion
/// to one of m = 2^k ~ n/8 equal-probability buckets, so a draw searches a
/// few CDF entries instead of all n, and returns exactly the rank a full
/// binary search would. Used by the synthetic trace generator; web-proxy
/// object popularity is classically Zipf with s in [0.6, 1.0].
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  /// Rank in [1, n]; rank 1 is the most popular. Equals
  /// rank_at(rng.uniform01()).
  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept { return rank_at(rng.uniform01()); }

  /// Inverse CDF: the smallest rank r with cdf()[r-1] >= u, for u in [0, 1).
  [[nodiscard]] std::size_t rank_at(double u) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  [[nodiscard]] double exponent() const noexcept { return s_; }

  /// Probability mass of a given rank (1-based).
  [[nodiscard]] double pmf(std::size_t rank) const;

  /// The normalised CDF (cdf()[r-1] = Pr[X <= r]; the last entry is 1).
  [[nodiscard]] const std::vector<double>& cdf() const noexcept { return cdf_; }

  /// Number of guide-table buckets m, a power of two.
  [[nodiscard]] std::size_t guide_buckets() const noexcept { return guide_.size() - 1; }

 private:
  std::vector<double> cdf_;
  /// guide_[j] = index of the first CDF entry >= j/m, for j in [0, m].
  std::vector<std::uint32_t> guide_;
  double s_;
};

}  // namespace ndnp::util
