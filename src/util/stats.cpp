#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ndnp::util {

void Welford::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Welford::merge(const Welford& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Welford::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Welford::stddev() const noexcept { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo must be < hi");
  if (bins == 0) throw std::invalid_argument("Histogram: need at least one bin");
  counts_.assign(bins, 0);
}

void Histogram::add(double x) noexcept {
  ++counts_[bin_of(x)];
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ || bins() != other.bins())
    throw std::invalid_argument("Histogram::merge: shapes differ");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

std::uint64_t Histogram::count(std::size_t bin) const { return counts_.at(bin); }

double Histogram::bin_width() const noexcept {
  return (hi_ - lo_) / static_cast<double>(counts_.size());
}

double Histogram::bin_center(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::bin_center");
  return lo_ + (static_cast<double>(bin) + 0.5) * bin_width();
}

double Histogram::pmf(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(bin)) / static_cast<double>(total_);
}

double Histogram::density(std::size_t bin) const { return pmf(bin) / bin_width(); }

std::size_t Histogram::bin_of(double x) const noexcept {
  if (!(x > lo_)) return 0;
  if (x >= hi_) return counts_.size() - 1;
  const auto bin = static_cast<std::size_t>((x - lo_) / bin_width());
  return std::min(bin, counts_.size() - 1);
}

void SampleSet::add(double x) {
  samples_.push_back(x);
  stats_.add(x);
}

double SampleSet::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error("SampleSet::quantile on empty set");
  q = std::clamp(q, 0.0, 1.0);
  // Only order statistics i and i + 1 are needed: select element i, then
  // take the minimum of the part above it, instead of sorting everything.
  std::vector<double> values = samples_;
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  const auto ith = values.begin() + static_cast<std::ptrdiff_t>(i);
  std::nth_element(values.begin(), ith, values.end());
  if (i + 1 >= values.size()) return *ith;
  const double next = *std::min_element(ith + 1, values.end());
  return *ith * (1.0 - frac) + next * frac;
}

std::pair<Histogram, Histogram> SampleSet::paired_histograms(const SampleSet& a,
                                                             const SampleSet& b,
                                                             std::size_t bins) {
  if (a.empty() || b.empty())
    throw std::invalid_argument("paired_histograms: both sets must be non-empty");
  double lo = std::min(a.min(), b.min());
  double hi = std::max(a.max(), b.max());
  if (lo == hi) {  // degenerate: all samples identical
    lo -= 0.5;
    hi += 0.5;
  }
  // Widen slightly so max samples do not all clamp into the last bin edge.
  const double pad = (hi - lo) * 1e-9;
  Histogram ha(lo, hi + pad, bins);
  Histogram hb(lo, hi + pad, bins);
  for (const double x : a.samples()) ha.add(x);
  for (const double x : b.samples()) hb.add(x);
  return {std::move(ha), std::move(hb)};
}

double total_variation(const Histogram& a, const Histogram& b) {
  if (a.bins() != b.bins() || a.lo() != b.lo() || a.hi() != b.hi())
    throw std::invalid_argument("total_variation: histograms must share binning");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.bins(); ++i) acc += std::abs(a.pmf(i) - b.pmf(i));
  return 0.5 * acc;
}

double bayes_accuracy(const Histogram& a, const Histogram& b) {
  return 0.5 + 0.5 * total_variation(a, b);
}

double bayes_accuracy(const SampleSet& a, const SampleSet& b, std::size_t bins) {
  const auto [ha, hb] = SampleSet::paired_histograms(a, b, bins);
  return bayes_accuracy(ha, hb);
}

double ks_statistic(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = std::max(a.size(), b.size());
  double cdf_a = 0.0;
  double cdf_b = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cdf_a += i < a.size() ? a[i] : 0.0;
    cdf_b += i < b.size() ? b[i] : 0.0;
    worst = std::max(worst, std::abs(cdf_a - cdf_b));
  }
  return worst;
}

double ks_statistic(const Histogram& a, const Histogram& b) {
  if (a.bins() != b.bins() || a.lo() != b.lo() || a.hi() != b.hi())
    throw std::invalid_argument("ks_statistic: histograms must share binning");
  std::vector<double> pa(a.bins());
  std::vector<double> pb(b.bins());
  for (std::size_t i = 0; i < a.bins(); ++i) {
    pa[i] = a.pmf(i);
    pb[i] = b.pmf(i);
  }
  return ks_statistic(pa, pb);
}

namespace {

std::uint64_t count_total(const std::vector<std::uint64_t>& v) {
  std::uint64_t total = 0;
  for (const std::uint64_t x : v) total += x;
  return total;
}

}  // namespace

double chi_square_statistic(const std::vector<std::uint64_t>& a,
                            const std::vector<std::uint64_t>& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("chi_square_statistic: category counts differ");
  const double na = static_cast<double>(count_total(a));
  const double nb = static_cast<double>(count_total(b));
  if (na == 0.0 || nb == 0.0)
    throw std::invalid_argument("chi_square_statistic: empty sample");
  const double ra = std::sqrt(nb / na);
  const double rb = std::sqrt(na / nb);
  double chi2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ai = static_cast<double>(a[i]);
    const double bi = static_cast<double>(b[i]);
    if (ai + bi == 0.0) continue;  // empty cell: no evidence either way
    const double diff = ra * ai - rb * bi;
    chi2 += diff * diff / (ai + bi);
  }
  return chi2;
}

double total_variation(const std::vector<std::uint64_t>& a,
                       const std::vector<std::uint64_t>& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("total_variation: category counts differ");
  const double na = static_cast<double>(count_total(a));
  const double nb = static_cast<double>(count_total(b));
  if (na == 0.0 || nb == 0.0) throw std::invalid_argument("total_variation: empty sample");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += std::abs(static_cast<double>(a[i]) / na - static_cast<double>(b[i]) / nb);
  return 0.5 * acc;
}

double amplified_success(double per_object_success, std::size_t n_objects) noexcept {
  const double fail = std::clamp(1.0 - per_object_success, 0.0, 1.0);
  return 1.0 - std::pow(fail, static_cast<double>(n_objects));
}

std::string format_pdf_table(const Histogram& a, const Histogram& b, const std::string& label_a,
                             const std::string& label_b, const std::string& x_label) {
  if (a.bins() != b.bins() || a.lo() != b.lo() || a.hi() != b.hi())
    throw std::invalid_argument("format_pdf_table: histograms must share binning");
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%14s  %14s  %14s\n", x_label.c_str(), label_a.c_str(),
                label_b.c_str());
  out += line;
  for (std::size_t i = 0; i < a.bins(); ++i) {
    // Skip all-empty bins to keep bench output compact.
    if (a.count(i) == 0 && b.count(i) == 0) continue;
    std::snprintf(line, sizeof line, "%14.3f  %14.5f  %14.5f\n", a.bin_center(i), a.density(i),
                  b.density(i));
    out += line;
  }
  return out;
}

}  // namespace ndnp::util
