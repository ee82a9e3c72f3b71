#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <string>
#include <vector>

namespace ndnp::util {
namespace {

TEST(SplitMix64, KnownSequenceFromZeroSeed) {
  // Reference values for seed 0 (widely published SplitMix64 vectors).
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, DeterministicForSameSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, DifferentSeedsProduceDifferentStreams) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro256, JumpDecorrelates) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.uniform_u64(17), 17u);
}

TEST(Rng, UniformU64BoundOneIsAlwaysZero) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_u64(1), 0u);
}

TEST(Rng, UniformU64IsRoughlyUniform) {
  Rng rng(5);
  std::array<int, 8> counts{};
  constexpr int kDraws = 80'000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_u64(8)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / 8.0, 5.0 * std::sqrt(kDraws / 8.0));
  }
}

TEST(Rng, UniformI64CoversInclusiveRange) {
  Rng rng(6);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t v = rng.uniform_i64(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsHalf) {
  Rng rng(8);
  double acc = 0.0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) acc += rng.uniform01();
  EXPECT_NEAR(acc / kDraws, 0.5, 0.005);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(10);
  int hits = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  double acc = 0.0;
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) acc += rng.exponential(2.0);
  EXPECT_NEAR(acc / kDraws, 0.5, 0.01);
}

TEST(Rng, ExponentialIsNonNegative) {
  Rng rng(12);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(rng.exponential(0.1), 0.0);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.03);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, LognormalMedianIsExpMu) {
  Rng rng(14);
  std::vector<double> draws;
  constexpr int kDraws = 100'001;
  draws.reserve(kDraws);
  for (int i = 0; i < kDraws; ++i) draws.push_back(rng.lognormal(std::log(3.0), 0.5));
  std::nth_element(draws.begin(), draws.begin() + kDraws / 2, draws.end());
  EXPECT_NEAR(draws[kDraws / 2], 3.0, 0.1);
}

TEST(Rng, GeometricPmfMatches) {
  Rng rng(15);
  constexpr double kAlpha = 0.7;
  constexpr int kDraws = 200'000;
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.geometric(kAlpha)];
  for (std::uint64_t k = 0; k < 5; ++k) {
    const double expected = (1.0 - kAlpha) * std::pow(kAlpha, static_cast<double>(k));
    EXPECT_NEAR(static_cast<double>(counts[k]) / kDraws, expected, 0.01) << "k=" << k;
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(16);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.next_u64() == child.next_u64()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(18);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  const std::vector<int> orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // probability of identity is astronomically small
}

TEST(ZipfSampler, PmfSumsToOne) {
  const ZipfSampler zipf(1000, 0.8);
  double acc = 0.0;
  for (std::size_t r = 1; r <= 1000; ++r) acc += zipf.pmf(r);
  EXPECT_NEAR(acc, 1.0, 1e-9);
}

TEST(ZipfSampler, PmfIsDecreasingInRank) {
  const ZipfSampler zipf(100, 1.0);
  for (std::size_t r = 1; r < 100; ++r) EXPECT_GT(zipf.pmf(r), zipf.pmf(r + 1));
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  const ZipfSampler zipf(10, 0.0);
  for (std::size_t r = 1; r <= 10; ++r) EXPECT_NEAR(zipf.pmf(r), 0.1, 1e-12);
}

TEST(ZipfSampler, SampleFrequenciesMatchPmf) {
  const ZipfSampler zipf(50, 0.8);
  Rng rng(19);
  std::vector<int> counts(51, 0);
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 1; r <= 5; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / kDraws, zipf.pmf(r), 0.01) << "rank " << r;
  }
}

TEST(ZipfSampler, SampleStaysInRange) {
  const ZipfSampler zipf(7, 1.2);
  Rng rng(20);
  for (int i = 0; i < 10'000; ++i) {
    const std::size_t r = zipf.sample(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 7u);
  }
}

TEST(ZipfSampler, GuideTableMatchesLowerBound) {
  // The guide table only narrows the search; every draw must land on the
  // rank a full lower_bound over the CDF returns. Exercised on seeded
  // uniforms and on every bucket edge j/m with its neighbouring doubles,
  // where an off-by-one in the table would show.
  for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 1'000u, 100'000u, 1'000'000u}) {
    for (const double s : {0.0, 0.5, 0.8, 1.2}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s));
      const ZipfSampler zipf(n, s);
      const std::vector<double>& cdf = zipf.cdf();
      ASSERT_EQ(cdf.size(), n);
      const auto reference = [&cdf](double u) {
        return static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                        cdf.begin()) +
               1;
      };
      std::vector<double> probes;
      Rng rng(7);
      for (int i = 0; i < 100'000; ++i) probes.push_back(rng.uniform01());
      const std::size_t m = zipf.guide_buckets();
      ASSERT_GE(m, 1u);
      ASSERT_EQ(m & (m - 1), 0u) << "bucket count must be a power of two";
      for (std::size_t j = 0; j <= m; ++j) {
        const double edge = static_cast<double>(j) / static_cast<double>(m);
        if (j < m) probes.push_back(edge);
        if (j > 0) probes.push_back(std::nextafter(edge, 0.0));
        if (j < m) probes.push_back(std::nextafter(edge, 1.0));
      }
      std::size_t mismatches = 0;
      for (const double u : probes)
        if (zipf.rank_at(u) != reference(u) && ++mismatches <= 5)
          ADD_FAILURE() << "u=" << u << " rank_at=" << zipf.rank_at(u)
                        << " lower_bound=" << reference(u);
      EXPECT_EQ(mismatches, 0u);
      // sample() is rank_at() of the next uniform draw.
      Rng a(11);
      Rng b(11);
      for (int i = 0; i < 1'000; ++i) ASSERT_EQ(zipf.sample(a), reference(b.uniform01()));
    }
  }
}

TEST(ZipfSampler, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.1), std::invalid_argument);
  const ZipfSampler zipf(10, 1.0);
  EXPECT_THROW((void)zipf.pmf(0), std::out_of_range);
  EXPECT_THROW((void)zipf.pmf(11), std::out_of_range);
}

}  // namespace
}  // namespace ndnp::util
