// Descriptive statistics used across the analysis pipeline.
//
// All functions operate on spans of double and are pure. Quantile uses the
// linear-interpolation convention (type 7 in the Hyndman–Fan taxonomy), which
// matches what the paper's (Python) tooling would have produced.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace icn::util {

/// Arithmetic mean. Requires non-empty input.
[[nodiscard]] double mean(std::span<const double> xs);

/// Population variance (divides by n). Requires non-empty input.
[[nodiscard]] double variance(std::span<const double> xs);

/// Sample standard deviation (divides by n-1); returns 0 for n < 2.
[[nodiscard]] double stddev(std::span<const double> xs);

/// Median (linear interpolation between middle elements). Requires non-empty.
[[nodiscard]] double median(std::span<const double> xs);

/// q-quantile, q in [0,1], linear interpolation. Requires non-empty input.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// In-place variants for hot paths: sort the caller's buffer instead of
/// copying it, so a loop can reuse one scratch buffer across calls.
/// Same value as quantile()/median() on the same data.
[[nodiscard]] double quantile_inplace(std::span<double> xs, double q);
[[nodiscard]] double median_inplace(std::span<double> xs);

/// Minimum / maximum. Require non-empty input.
[[nodiscard]] double min_value(std::span<const double> xs);
[[nodiscard]] double max_value(std::span<const double> xs);

/// Sum (Kahan-compensated, stable for long traffic series).
[[nodiscard]] double sum(std::span<const double> xs);

/// Pearson correlation coefficient; returns 0 when either side is constant.
/// Requires xs.size() == ys.size() and non-empty.
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys);

/// Fixed-width histogram.
struct Histogram {
  double lo = 0.0;               ///< Left edge of the first bin.
  double hi = 0.0;               ///< Right edge of the last bin.
  std::vector<std::size_t> counts;  ///< counts[i] covers [edge_i, edge_{i+1}).

  /// Left edge of bin i.
  [[nodiscard]] double bin_left(std::size_t i) const;
  /// Width of each bin.
  [[nodiscard]] double bin_width() const;
  /// Total number of samples.
  [[nodiscard]] std::size_t total() const;
};

/// Builds a histogram with `bins` equal-width bins over [lo, hi]; samples
/// outside the range are clamped into the first/last bin. Requires bins > 0
/// and lo < hi.
[[nodiscard]] Histogram make_histogram(std::span<const double> xs, double lo,
                                       double hi, std::size_t bins);

/// Normalizes values by their maximum (all zero stays zero).
[[nodiscard]] std::vector<double> normalize_by_max(std::span<const double> xs);

/// Adjusted Rand Index between two labelings of the same points, in
/// [-1, 1] with 1 = identical partitions. Requires equal non-zero sizes.
[[nodiscard]] double adjusted_rand_index(std::span<const int> a,
                                         std::span<const int> b);

}  // namespace icn::util
