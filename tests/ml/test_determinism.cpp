// Determinism across thread counts: every parallelized kernel must produce
// bit-identical output whether the pool has 1 thread (pure serial) or 8
// (oversubscribed on small machines). Chunk boundaries depend only on the
// grain and partials fold in a fixed order, so these are exact-equality
// checks, not tolerances.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "ml/distance.h"
#include "ml/forest.h"
#include "ml/linkage.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/treeshap.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace icn::ml {
namespace {

using icn::util::ThreadPool;

/// Mildly noisy Gaussian blobs: enough structure for clustering/forests,
/// enough noise that any scheduling-dependent arithmetic would show up.
Matrix blob_data(std::size_t per_blob, std::size_t dims, double sigma,
                 std::uint64_t seed, std::vector<int>* labels = nullptr) {
  icn::util::Rng rng(seed);
  Matrix x(per_blob * 3, dims);
  const double centers[3][2] = {{0.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}};
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      const std::size_t r = b * per_blob + i;
      x(r, 0) = centers[b][0] + rng.normal(0.0, sigma);
      x(r, 1) = centers[b][1] + rng.normal(0.0, sigma);
      for (std::size_t f = 2; f < dims; ++f) x(r, f) = rng.normal();
      if (labels) labels->push_back(static_cast<int>(b));
    }
  }
  return x;
}

template <typename Fn>
auto with_threads(std::size_t num_threads, Fn&& fn) {
  ThreadPool::ScopedOverride pool(num_threads);
  return fn();
}

/// Reference implementation of squared_euclidean's documented canonical
/// accumulation order (lane k sums elements i == k (mod 4), lanes combine
/// as (s0+s2)+(s1+s3), sequential tail). The shipped kernel — SIMD or
/// scalar, whichever this build selected — must match it bit for bit.
double squared_euclidean_reference(std::span<const double> a,
                                   std::span<const double> b) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= a.size(); i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double acc = (s0 + s2) + (s1 + s3);
  for (; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

TEST(SimdDeterminismTest, SquaredEuclideanMatchesCanonicalOrderBitForBit) {
  icn::util::Rng rng(7701);
  // Every tail length 0..3 and short vectors that never enter the 4-wide
  // loop, with values spanning many orders of magnitude so an accumulation
  // reorder cannot hide in rounding slack.
  for (const std::size_t dims : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 15u, 16u,
                                 17u, 64u, 73u, 101u}) {
    for (int rep = 0; rep < 25; ++rep) {
      std::vector<double> a(dims), b(dims);
      for (std::size_t i = 0; i < dims; ++i) {
        const double scale = std::pow(10.0, rng.uniform(-6.0, 6.0));
        a[i] = rng.normal() * scale;
        b[i] = rng.normal() * scale;
      }
      ASSERT_EQ(squared_euclidean(a, b), squared_euclidean_reference(a, b))
          << "dims " << dims << " rep " << rep;
      ASSERT_EQ(euclidean(a, b),
                std::sqrt(squared_euclidean_reference(a, b)))
          << "dims " << dims << " rep " << rep;
    }
  }
}

TEST(ThreadDeterminismTest, CondensedDistancesBitIdentical) {
  const Matrix x = blob_data(40, 6, 1.2, 101);
  const auto serial = with_threads(1, [&] { return CondensedDistances(x); });
  const auto threaded =
      with_threads(8, [&] { return CondensedDistances(x); });
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = i + 1; j < x.rows(); ++j) {
      ASSERT_EQ(serial(i, j), threaded(i, j)) << "pair " << i << "," << j;
    }
  }
}

TEST(ThreadDeterminismTest, ClusteringLabelsBitIdentical) {
  const Matrix x = blob_data(50, 4, 1.5, 202);
  for (const Linkage linkage : {Linkage::kWard, Linkage::kComplete}) {
    const auto serial = with_threads(1, [&] {
      return agglomerative_cluster(x, linkage);
    });
    const auto threaded = with_threads(8, [&] {
      return agglomerative_cluster(x, linkage);
    });
    ASSERT_EQ(serial.merges().size(), threaded.merges().size());
    for (std::size_t t = 0; t < serial.merges().size(); ++t) {
      EXPECT_EQ(serial.merges()[t].height, threaded.merges()[t].height)
          << linkage_name(linkage) << " merge " << t;
    }
    for (const std::size_t k : {2u, 3u, 5u, 8u}) {
      EXPECT_EQ(serial.cut(k), threaded.cut(k))
          << linkage_name(linkage) << " cut k=" << k;
    }
  }
}

TEST(ThreadDeterminismTest, CopheneticCorrelationBitIdentical) {
  // Sizes straddling the grain-4 chunk boundary, including n < grain
  // (pure tail) and n not a multiple of the grain.
  for (const std::size_t per_blob : {1u, 2u, 13u, 40u}) {
    const Matrix x = blob_data(per_blob, 5, 1.1, 707);
    const Dendrogram tree = agglomerative_cluster(x, Linkage::kWard);
    const double c1 =
        with_threads(1, [&] { return cophenetic_correlation(tree, x); });
    const double c8 =
        with_threads(8, [&] { return cophenetic_correlation(tree, x); });
    EXPECT_EQ(c1, c8) << "n = " << x.rows();
  }
}

TEST(ThreadDeterminismTest, SilhouetteAndDunnBitIdentical) {
  std::vector<int> y;
  const Matrix x = blob_data(40, 4, 1.0, 303, &y);
  const CondensedDistances dist(x);
  const double s1 = with_threads(1, [&] { return silhouette_score(dist, y); });
  const double s8 = with_threads(8, [&] { return silhouette_score(dist, y); });
  EXPECT_EQ(s1, s8);
  const double d1 = with_threads(1, [&] { return dunn_index(dist, y); });
  const double d8 = with_threads(8, [&] { return dunn_index(dist, y); });
  EXPECT_EQ(d1, d8);
}

TEST(ThreadDeterminismTest, ForestBitIdentical) {
  std::vector<int> y;
  const Matrix x = blob_data(50, 4, 1.3, 404, &y);
  RandomForest::Params params;
  params.num_trees = 24;
  params.seed = 99;
  auto fit = [&](std::size_t threads) {
    return with_threads(threads, [&] {
      RandomForest forest;
      forest.fit(x, y, 3, params);
      return forest;
    });
  };
  const RandomForest serial = fit(1);
  const RandomForest threaded = fit(8);
  EXPECT_EQ(serial.oob_accuracy(), threaded.oob_accuracy());
  const auto pred1 = with_threads(1, [&] { return serial.predict_all(x); });
  const auto pred8 = with_threads(8, [&] { return threaded.predict_all(x); });
  EXPECT_EQ(pred1, pred8);
  for (std::size_t i = 0; i < x.rows(); i += 7) {
    const auto p1 = serial.predict_proba(x.row(i));
    const auto p8 = threaded.predict_proba(x.row(i));
    ASSERT_EQ(p1, p8) << "row " << i;
  }
}

TEST(ThreadDeterminismTest, TreeShapBatchBitIdentical) {
  std::vector<int> y;
  const Matrix x = blob_data(30, 4, 1.2, 505, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 10;
  forest.fit(x, y, 3, params);
  const auto shap1 =
      with_threads(1, [&] { return forest_shap_batch(forest, x); });
  const auto shap8 =
      with_threads(8, [&] { return forest_shap_batch(forest, x); });
  ASSERT_EQ(shap1.size(), shap8.size());
  for (std::size_t r = 0; r < shap1.size(); ++r) {
    const auto a = shap1[r].data();
    const auto b = shap8[r].data();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "row " << r << " slot " << i;
    }
  }
  // The batch is also bit-identical to the serial row-by-row reference.
  for (std::size_t r = 0; r < x.rows(); r += 11) {
    const Matrix ref = forest_shap(forest, x.row(r));
    const auto got = shap8[r].data();
    ASSERT_EQ(ref.data().size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(ref.data()[i], got[i]) << "row " << r << " slot " << i;
    }
  }
}

}  // namespace
}  // namespace icn::ml
