// Distance and accumulation kernels and the condensed pairwise-distance
// matrix used by the clustering and cluster-validity code.
//
// The hot kernels (squared_euclidean, vector_sum) are runtime-dispatched over
// scalar / AVX2 lanes (util/simd.h: cpuid probe at first use, ICN_SIMD
// override). Both lanes accumulate in the SAME canonical 4-lane order — lane
// k sums elements i == k (mod 4), lanes combine as (s0 + s2) + (s1 + s3), the
// 0-3 tail elements add sequentially — so the vectors change speed, never
// bits: ICN_SIMD=scalar output is byte-identical to the AVX2 lane.
//
// The x4 row-batched kernels extend that contract: they compute one query
// row against four consecutive matrix rows with four independent accumulator
// chains. Per output they run exactly the canonical order, so each of the
// four results is byte-identical to the single-pair kernel — the batching
// exists to break the add-latency dependency chain that bounds the
// single-accumulator kernels, not to change the math.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "ml/matrix.h"
#include "util/error.h"

namespace icn::ml {

/// Squared Euclidean distance between two equal-length vectors, in the
/// canonical accumulation order (see file comment).
[[nodiscard]] double squared_euclidean(std::span<const double> a,
                                       std::span<const double> b);

/// Euclidean distance between two equal-length vectors.
[[nodiscard]] double euclidean(std::span<const double> a,
                               std::span<const double> b);

/// Sum of a vector in the canonical accumulation order — the dispatched
/// row and grand totals of the RCA transform (core/rca.cpp).
[[nodiscard]] double vector_sum(std::span<const double> xs);

namespace detail {

// Per-level kernels, exposed for the bit-exactness parity tests and the
// SIMD benches. The AVX2 variants must only be called when the CPU supports
// AVX2 (util::max_supported_simd_level()); on non-x86 builds they alias the
// scalar kernel.
[[nodiscard]] double squared_euclidean_scalar(const double* a, const double* b,
                                              std::size_t n);
[[nodiscard]] double squared_euclidean_avx2(const double* a, const double* b,
                                            std::size_t n);
[[nodiscard]] double vector_sum_scalar(const double* xs, std::size_t n);
[[nodiscard]] double vector_sum_avx2(const double* xs, std::size_t n);

// Row-batched variants: distances from `a` to the four rows starting at `b`
// with `stride` doubles between row starts. out[r] is byte-identical to the
// same-level single-pair kernel on (a, b + r*stride).
void squared_euclidean_x4_scalar(const double* a, const double* b,
                                 std::size_t stride, std::size_t n,
                                 double out[4]);
void squared_euclidean_x4_avx2(const double* a, const double* b,
                               std::size_t stride, std::size_t n,
                               double out[4]);

}  // namespace detail

/// Default row/column tile (in rows) for the cache-blocked condensed-distance
/// fill: 64 rows of a 168-service feature matrix is ~86 KB per panel, so one
/// row panel plus one column panel stay L2-resident.
inline constexpr std::size_t kDefaultDistanceTile = 64;

/// Fills `out` (length n*(n-1)/2, condensed upper-triangle layout) with
/// pairwise Euclidean (or squared-Euclidean) distances between the rows of X,
/// cache-blocked into `tile`-row panels and parallelized over row panels.
/// Every pair value is a pure function of rows (i, j) — panels only decide
/// iteration order, never accumulation order — so the result is byte-
/// identical for every tile size and thread count. Requires tile >= 1.
void fill_condensed(const Matrix& x, bool squared, std::span<double> out,
                    std::size_t tile = kDefaultDistanceTile);

/// Upper-triangle (i < j) pairwise Euclidean distances of the rows of X,
/// stored condensed in double (N = 4,762 -> ~90 MB) so lookups agree exactly
/// with the double-precision working distances of the linkage code. Built by
/// the tiled fill_condensed; identical for every tile size and thread count.
class CondensedDistances {
 public:
  /// Computes all pairwise distances of X's rows. Requires X.rows() >= 1 and
  /// tile >= 1.
  explicit CondensedDistances(const Matrix& x,
                              std::size_t tile = kDefaultDistanceTile);

  /// Number of points.
  [[nodiscard]] std::size_t size() const { return n_; }

  /// Distance between points i and j (0 when i == j). Bounds are checked in
  /// debug builds only: this accessor runs O(N^2) times per silhouette score.
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    ICN_DBG_REQUIRE(i < n_ && j < n_, "distance index");
    if (i == j) return 0.0;
    if (i > j) std::swap(i, j);
    return d_[index(i, j)];
  }

  /// Contiguous condensed slice d(i, i+1), d(i, i+2), ..., d(i, n-1) — the
  /// unit the vectorized silhouette/Dunn row kernels consume. Empty for the
  /// last row. Requires i < size().
  [[nodiscard]] std::span<const double> row_tail(std::size_t i) const {
    ICN_DBG_REQUIRE(i < n_, "distance row index");
    if (i + 1 >= n_) return {};
    return {d_.data() + index(i, i + 1), n_ - i - 1};
  }

 private:
  std::size_t n_ = 0;
  std::vector<double> d_;

  // i < j assumed by callers after the swap in operator().
  [[nodiscard]] std::size_t index(std::size_t i, std::size_t j) const {
    return i * n_ - i * (i + 1) / 2 + (j - i - 1);
  }
};

}  // namespace icn::ml
