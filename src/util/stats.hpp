// Statistics utilities used across attacks, benches and tests.
//
// The timing attacks of the paper (Section III) reduce to distinguishing
// two delay distributions (cache hit vs cache miss). The primitives here —
// streaming moments, fixed-bin histograms, total-variation distance and the
// induced Bayes-optimal classification accuracy — are exactly what those
// experiments and their figures need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ndnp::util {

/// Streaming mean/variance/min/max (Welford's algorithm): numerically
/// stable, O(1) memory, mergeable.
class Welford {
 public:
  void add(double x) noexcept;
  void merge(const Welford& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 if fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width-bin histogram over [lo, hi). Out-of-range samples clamp to
/// the first/last bin so no probability mass is silently dropped (matters
/// for heavy-tailed WAN jitter); a NaN sample lands in the first bin.
/// Shape (lo, hi, bins) is fixed at construction.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  /// Bin-wise sum. Associative and commutative (unsigned addition per
  /// bin). Throws std::invalid_argument unless the shapes match.
  void merge(const Histogram& other);

  [[nodiscard]] bool operator==(const Histogram& other) const = default;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] double bin_width() const noexcept;
  [[nodiscard]] double bin_center(std::size_t bin) const;

  /// Probability mass of a bin (count / total); 0 when empty.
  [[nodiscard]] double pmf(std::size_t bin) const;

  /// Probability *density* of a bin (pmf / bin width) — the quantity the
  /// paper's Figure 3 plots on the y axis.
  [[nodiscard]] double density(std::size_t bin) const;

  /// Bin index a sample would fall into (after clamping).
  [[nodiscard]] std::size_t bin_of(double x) const noexcept;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Sample container with exact quantiles. Unlike Histogram this keeps every
/// observation; use it when sample counts are modest (timing probes).
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] const std::vector<double>& samples() const noexcept { return samples_; }
  [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
  [[nodiscard]] double stddev() const noexcept { return stats_.stddev(); }
  [[nodiscard]] double min() const noexcept { return stats_.min(); }
  [[nodiscard]] double max() const noexcept { return stats_.max(); }

  /// Exact quantile (linear between the two nearest order statistics,
  /// selected from a copy); q in [0,1]. Throws if empty.
  [[nodiscard]] double quantile(double q) const;

  /// Histogram over [min, max] of the combined range of *both* sets, with
  /// identical binning — the precondition for total_variation below.
  [[nodiscard]] static std::pair<Histogram, Histogram> paired_histograms(
      const SampleSet& a, const SampleSet& b, std::size_t bins);

 private:
  std::vector<double> samples_;
  Welford stats_;
};

/// Total-variation distance between two histograms with identical binning:
/// TV = 1/2 * sum_b |p_a(b) - p_b(b)|, in [0, 1]. Throws on binning
/// mismatch.
[[nodiscard]] double total_variation(const Histogram& a, const Histogram& b);

/// Accuracy of the Bayes-optimal classifier distinguishing two equally
/// likely distributions: 1/2 + TV/2. This is the "probability that Adv can
/// determine whether C is retrieved from R's cache" that the paper reports
/// (>99.9 % LAN, >99 % WAN, ~59 % producer-adjacent).
[[nodiscard]] double bayes_accuracy(const Histogram& a, const Histogram& b);

/// Kolmogorov-Smirnov statistic max_i |CDF_a(i) - CDF_b(i)| between two
/// probability vectors over the same outcome indexing (shorter one padded
/// with zeros). Less binning-sensitive than TV for goodness-of-fit checks.
[[nodiscard]] double ks_statistic(const std::vector<double>& a, const std::vector<double>& b);

/// KS statistic between two same-binned histograms.
[[nodiscard]] double ks_statistic(const Histogram& a, const Histogram& b);

/// Convenience: Bayes accuracy straight from two sample sets, using
/// `bins` shared bins over their combined range.
[[nodiscard]] double bayes_accuracy(const SampleSet& a, const SampleSet& b, std::size_t bins = 64);

/// Two-sample Pearson chi-square statistic for homogeneity between two
/// count vectors over the same categories:
///
///   X^2 = sum_i (sqrt(N_b/N_a) a_i - sqrt(N_a/N_b) b_i)^2 / (a_i + b_i)
///
/// over cells with a_i + b_i > 0 (empty cells carry no evidence). Under the
/// null hypothesis that both vectors draw from one distribution, X^2 is
/// asymptotically chi-square with (#nonempty cells - 1) degrees of freedom.
/// The statistical-regression tests lock an upper bound on this for
/// sharded-vs-unsharded replay outcome distributions. Throws
/// std::invalid_argument on size mismatch or when either vector is all
/// zeros.
[[nodiscard]] double chi_square_statistic(const std::vector<std::uint64_t>& a,
                                          const std::vector<std::uint64_t>& b);

/// Total-variation distance between two count vectors over the same
/// categories (each normalized to a probability vector first); in [0, 1].
/// Throws std::invalid_argument on size mismatch or all-zero input.
[[nodiscard]] double total_variation(const std::vector<std::uint64_t>& a,
                                     const std::vector<std::uint64_t>& b);

/// Fragment-correlation amplification (Section III): probability of overall
/// attack success when a content is split into n objects and each
/// independent per-object probe succeeds with probability p:
/// 1 - (1-p)^n.
[[nodiscard]] double amplified_success(double per_object_success, std::size_t n_objects) noexcept;

/// Render two same-binned histograms side by side as the text analogue of
/// the paper's PDF plots (Figure 3): one row per bin with center, and the
/// two densities. Used by the bench binaries.
[[nodiscard]] std::string format_pdf_table(const Histogram& a, const Histogram& b,
                                           const std::string& label_a,
                                           const std::string& label_b,
                                           const std::string& x_label = "time [ms]");

}  // namespace ndnp::util
