#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/rng.hpp"

namespace ndnp::util {
namespace {

TEST(Welford, EmptyIsZero) {
  const Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.mean(), 0.0);
  EXPECT_EQ(w.variance(), 0.0);
}

TEST(Welford, KnownValues) {
  Welford w;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_EQ(w.count(), 8u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
}

TEST(Welford, SingleSampleHasZeroVariance) {
  Welford w;
  w.add(3.5);
  EXPECT_EQ(w.variance(), 0.0);
  EXPECT_EQ(w.mean(), 3.5);
}

TEST(Welford, MergeEqualsCombinedStream) {
  Rng rng(1);
  Welford combined;
  Welford a;
  Welford b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 1.5);
    combined.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
}

TEST(Welford, MergeWithEmptyIsIdentity) {
  Welford a;
  a.add(1.0);
  a.add(2.0);
  Welford b;
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsAndCenters) {
  const Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bins(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(4), 9.0);
  EXPECT_THROW((void)h.bin_center(5), std::out_of_range);
}

TEST(Histogram, AddAndPmf) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);
  h.add(1.5);
  h.add(9.0);
  h.add(5.0);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_DOUBLE_EQ(h.pmf(0), 0.5);
  EXPECT_DOUBLE_EQ(h.density(0), 0.25);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  h.add(10.0);  // hi boundary clamps into last bin
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 2u);
}

TEST(Histogram, NaNSampleLandsInFirstBin) {
  Histogram h(0.0, 1.0, 4);
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.bin_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.total(), 1u);
}

TEST(Histogram, EmptyPmfIsZero) {
  const Histogram h(0.0, 1.0, 3);
  EXPECT_EQ(h.pmf(1), 0.0);
  EXPECT_EQ(h.density(1), 0.0);
}

TEST(SampleSet, TracksMoments) {
  SampleSet s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(SampleSet, QuantileInterpolates) {
  SampleSet s;
  for (const double x : {10.0, 20.0, 30.0, 40.0, 50.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 20.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.125), 15.0);
}

TEST(SampleSet, QuantileOnEmptyThrows) {
  const SampleSet s;
  EXPECT_THROW((void)s.quantile(0.5), std::logic_error);
}

TEST(SampleSet, PairedHistogramsShareBinning) {
  SampleSet a;
  SampleSet b;
  a.add(1.0);
  a.add(2.0);
  b.add(5.0);
  b.add(10.0);
  const auto [ha, hb] = SampleSet::paired_histograms(a, b, 16);
  EXPECT_EQ(ha.bins(), hb.bins());
  EXPECT_DOUBLE_EQ(ha.lo(), hb.lo());
  EXPECT_DOUBLE_EQ(ha.hi(), hb.hi());
  EXPECT_EQ(ha.total(), 2u);
  EXPECT_EQ(hb.total(), 2u);
}

TEST(SampleSet, PairedHistogramsDegenerateRange) {
  SampleSet a;
  SampleSet b;
  a.add(3.0);
  b.add(3.0);
  const auto [ha, hb] = SampleSet::paired_histograms(a, b, 4);
  EXPECT_EQ(ha.total(), 1u);
  EXPECT_EQ(hb.total(), 1u);
}

TEST(SampleSet, PairedHistogramsRequireSamples) {
  SampleSet a;
  const SampleSet empty;
  a.add(1.0);
  EXPECT_THROW((void)SampleSet::paired_histograms(a, empty, 4), std::invalid_argument);
}

TEST(TotalVariation, IdenticalDistributionsAreZero) {
  Histogram a(0.0, 1.0, 4);
  Histogram b(0.0, 1.0, 4);
  for (const double x : {0.1, 0.4, 0.6, 0.9}) {
    a.add(x);
    b.add(x);
  }
  EXPECT_DOUBLE_EQ(total_variation(a, b), 0.0);
  EXPECT_DOUBLE_EQ(bayes_accuracy(a, b), 0.5);
}

TEST(TotalVariation, DisjointDistributionsAreOne) {
  Histogram a(0.0, 1.0, 4);
  Histogram b(0.0, 1.0, 4);
  a.add(0.1);
  b.add(0.9);
  EXPECT_DOUBLE_EQ(total_variation(a, b), 1.0);
  EXPECT_DOUBLE_EQ(bayes_accuracy(a, b), 1.0);
}

TEST(TotalVariation, IsSymmetric) {
  Histogram a(0.0, 1.0, 4);
  Histogram b(0.0, 1.0, 4);
  a.add(0.1);
  a.add(0.4);
  b.add(0.4);
  b.add(0.9);
  EXPECT_DOUBLE_EQ(total_variation(a, b), total_variation(b, a));
}

TEST(TotalVariation, MismatchedBinningThrows) {
  Histogram a(0.0, 1.0, 4);
  Histogram b(0.0, 2.0, 4);
  EXPECT_THROW((void)total_variation(a, b), std::invalid_argument);
  Histogram c(0.0, 1.0, 8);
  EXPECT_THROW((void)total_variation(a, c), std::invalid_argument);
}

TEST(BayesAccuracy, FromSampleSetsSeparatesShiftedGaussians) {
  Rng rng(2);
  SampleSet a;
  SampleSet b;
  for (int i = 0; i < 5000; ++i) {
    a.add(rng.normal(0.0, 1.0));
    b.add(rng.normal(10.0, 1.0));
  }
  EXPECT_GT(bayes_accuracy(a, b, 64), 0.99);
}

TEST(BayesAccuracy, OverlappingGaussiansNearChance) {
  Rng rng(3);
  SampleSet a;
  SampleSet b;
  for (int i = 0; i < 5000; ++i) {
    a.add(rng.normal(0.0, 1.0));
    b.add(rng.normal(0.05, 1.0));
  }
  EXPECT_LT(bayes_accuracy(a, b, 32), 0.60);
}

TEST(AmplifiedSuccess, MatchesPaperExample) {
  // Pr[success] = 0.59 per object, 8 objects: 1 - 0.41^8 ~ 0.9992.
  EXPECT_NEAR(amplified_success(0.59, 8), 0.99920, 5e-5);
}

TEST(AmplifiedSuccess, SingleObjectIsIdentity) {
  EXPECT_DOUBLE_EQ(amplified_success(0.7, 1), 0.7);
}

TEST(AmplifiedSuccess, MonotoneInFragments) {
  double prev = 0.0;
  for (std::size_t n = 1; n <= 16; ++n) {
    const double s = amplified_success(0.3, n);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(AmplifiedSuccess, EdgeProbabilities) {
  EXPECT_DOUBLE_EQ(amplified_success(0.0, 5), 0.0);
  EXPECT_DOUBLE_EQ(amplified_success(1.0, 5), 1.0);
  EXPECT_DOUBLE_EQ(amplified_success(0.5, 0), 0.0);  // zero probes learn nothing
}

TEST(FormatPdfTable, ContainsLabelsAndSkipsEmptyBins) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  a.add(1.0);
  b.add(9.0);
  const std::string table = format_pdf_table(a, b, "hit", "miss");
  EXPECT_NE(table.find("hit"), std::string::npos);
  EXPECT_NE(table.find("miss"), std::string::npos);
  // Two populated bins + header = 3 lines.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 3);
}

TEST(FormatPdfTable, MismatchedBinningThrows) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 5);
  EXPECT_THROW((void)format_pdf_table(a, b, "x", "y"), std::invalid_argument);
}

}  // namespace
}  // namespace ndnp::util

namespace ndnp::util {
namespace {

TEST(KsStatistic, IdenticalDistributionsAreZero) {
  const std::vector<double> p{0.2, 0.3, 0.5};
  EXPECT_DOUBLE_EQ(ks_statistic(p, p), 0.0);
}

TEST(KsStatistic, DisjointDistributionsAreOne) {
  EXPECT_DOUBLE_EQ(ks_statistic({1.0, 0.0}, {0.0, 1.0}), 1.0);
}

TEST(KsStatistic, KnownShiftValue) {
  // CDFs: a = (0.5, 1.0), b = (0.0, 0.5, 1.0) -> max gap at index 0: 0.5.
  EXPECT_DOUBLE_EQ(ks_statistic({0.5, 0.5}, {0.0, 0.5, 0.5}), 0.5);
}

TEST(KsStatistic, PadsShorterVector) {
  EXPECT_DOUBLE_EQ(ks_statistic({1.0}, {0.5, 0.5}), 0.5);
}

TEST(KsStatistic, BoundedByTotalVariation) {
  // KS <= TV always; check on a few random pairs.
  Rng rng(9);
  for (int round = 0; round < 50; ++round) {
    std::vector<double> a(8);
    std::vector<double> b(8);
    double sa = 0.0;
    double sb = 0.0;
    for (int i = 0; i < 8; ++i) {
      a[static_cast<std::size_t>(i)] = rng.uniform01();
      b[static_cast<std::size_t>(i)] = rng.uniform01();
      sa += a[static_cast<std::size_t>(i)];
      sb += b[static_cast<std::size_t>(i)];
    }
    double tv = 0.0;
    for (int i = 0; i < 8; ++i) {
      a[static_cast<std::size_t>(i)] /= sa;
      b[static_cast<std::size_t>(i)] /= sb;
      tv += std::abs(a[static_cast<std::size_t>(i)] - b[static_cast<std::size_t>(i)]);
    }
    tv /= 2.0;
    EXPECT_LE(ks_statistic(a, b), tv + 1e-12);
  }
}

TEST(KsStatistic, HistogramOverloadMatchesVectorForm) {
  Histogram ha(0.0, 1.0, 4);
  Histogram hb(0.0, 1.0, 4);
  ha.add(0.1);
  ha.add(0.3);
  hb.add(0.7);
  hb.add(0.9);
  EXPECT_DOUBLE_EQ(ks_statistic(ha, hb), 1.0);
  Histogram mismatched(0.0, 2.0, 4);
  EXPECT_THROW((void)ks_statistic(ha, mismatched), std::invalid_argument);
}

}  // namespace
}  // namespace ndnp::util
