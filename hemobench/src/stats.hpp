// Order statistics for benchmark samples.
//
// Reporting rules (README.md, "Statistics"):
//  * a percentile is reportable only with at least kMinBeyond samples
//    beyond it: above it for the median and upper tails (a p90 needs 100
//    samples, a p99 1000), below it for lower ones (a p10 needs 101);
//  * quartiles follow Python's statistics.quantiles(values, n=4) (the
//    default "exclusive" method), so spreads printed here match the ones a
//    Python script computes from the same values.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace hemobench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// {Q1, Q2, Q3} exactly as statistics.quantiles(v, n=4) computes them.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// Interquartile range as a share of the median.
inline double relative_iqr(const std::vector<double>& v) {
  const auto q = quartiles(v);
  return (q[2] - q[0]) / q[1];
}

/// Nearest rank (1-based) of `percent` among n samples.
inline std::size_t nearest_rank(int percent, std::size_t n) {
  if (percent <= 0 || percent >= 100) {
    throw std::invalid_argument("percentile must be in (0, 100)");
  }
  return (static_cast<std::size_t>(percent) * n + 99) / 100;
}

/// Samples beyond the nearest rank of `percent`: above it for the median
/// and upper percentiles, below it for lower ones.
inline std::size_t samples_beyond(int percent, std::size_t n) {
  const std::size_t rank = nearest_rank(percent, n);
  if (rank == 0) return 0;
  return percent < 50 ? rank - 1 : n - rank;
}

/// Smallest sample count for which `percent` has kMinBeyond samples
/// beyond it under the nearest-rank rule of percentile().
inline std::size_t min_samples_for(int percent) {
  std::size_t n = 1;
  while (samples_beyond(percent, n) < kMinBeyond) ++n;
  return n;
}

/// Nearest-rank percentile: the smallest sample with at least `percent`%
/// of the samples at or below it. Empty when fewer than kMinBeyond samples
/// lie beyond that rank, i.e. the percentile is not reportable.
inline std::optional<double> percentile(std::vector<double> v, int percent) {
  const std::size_t n = v.size();
  if (samples_beyond(percent, n) < kMinBeyond) return std::nullopt;
  const std::size_t rank = nearest_rank(percent, n);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

/// Least-squares slope of log(y) against log(x): the scaling exponent of
/// y = c * x^k. Needs two or more distinct positive x.
inline double loglog_slope(const std::vector<double>& x,
                           const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("loglog_slope needs matched pairs");
  }
  double sx = 0.0, sy = 0.0;
  const double n = static_cast<double>(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += std::log(x[i]);
    sy += std::log(y[i]);
  }
  double sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = std::log(x[i]) - sx / n;
    sxx += dx * dx;
    sxy += dx * (std::log(y[i]) - sy / n);
  }
  if (sxx == 0.0) throw std::invalid_argument("loglog_slope: constant x");
  return sxy / sxx;
}

}  // namespace hemobench
