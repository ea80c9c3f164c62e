#include "ml/forest.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ml/metrics.h"
#include "util/error.h"
#include "util/rng.h"

namespace icn::ml {
namespace {

/// Three noisy Gaussian blobs in 4D (two informative dims, two noise).
Matrix blob_data(std::size_t per_blob, double sigma, std::uint64_t seed,
                 std::vector<int>* labels) {
  icn::util::Rng rng(seed);
  Matrix x(per_blob * 3, 4);
  const double centers[3][2] = {{0.0, 0.0}, {4.0, 0.0}, {0.0, 4.0}};
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      const std::size_t r = b * per_blob + i;
      x(r, 0) = centers[b][0] + rng.normal(0.0, sigma);
      x(r, 1) = centers[b][1] + rng.normal(0.0, sigma);
      x(r, 2) = rng.normal();  // noise
      x(r, 3) = rng.normal();  // noise
      labels->push_back(static_cast<int>(b));
    }
  }
  return x;
}

/// FNV-1a over the raw bytes of `v`, continuing from `h`.
template <typename T>
std::uint64_t fnv1a(const T& v, std::uint64_t h) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

/// Digest of a fitted forest: every node's feature, threshold bits,
/// children, cover and class-value bits, then the OOB accuracy and the
/// feature importances.
std::uint64_t forest_digest(const RandomForest& forest) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto k = static_cast<std::size_t>(forest.num_classes());
  for (const auto& tree : forest.trees()) {
    for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
      const auto& node = tree.node(i);
      h = fnv1a(node.feature, h);
      h = fnv1a(node.threshold, h);
      h = fnv1a(node.left, h);
      h = fnv1a(node.right, h);
      h = fnv1a(node.cover, h);
      for (std::size_t c = 0; c < k; ++c) h = fnv1a(node.value[c], h);
    }
  }
  h = fnv1a(forest.oob_accuracy(), h);
  for (const double v : forest.feature_importance()) h = fnv1a(v, h);
  return h;
}

TEST(RandomForestTest, FitsSeparableData) {
  std::vector<int> y;
  const Matrix x = blob_data(60, 0.5, 3, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 30;
  forest.fit(x, y, 3, params);
  EXPECT_TRUE(forest.is_fitted());
  EXPECT_EQ(forest.trees().size(), 30u);
  EXPECT_GT(accuracy(forest.predict_all(x), y), 0.99);
}

TEST(RandomForestTest, OobAccuracyIsReasonable) {
  std::vector<int> y;
  const Matrix x = blob_data(80, 0.5, 5, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 50;
  forest.fit(x, y, 3, params);
  EXPECT_GT(forest.oob_accuracy(), 0.9);
  EXPECT_LE(forest.oob_accuracy(), 1.0);
}

TEST(RandomForestTest, OobNanWithoutBootstrap) {
  std::vector<int> y;
  const Matrix x = blob_data(20, 0.5, 7, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 5;
  params.bootstrap = false;
  forest.fit(x, y, 3, params);
  EXPECT_TRUE(std::isnan(forest.oob_accuracy()));
}

TEST(RandomForestTest, ProbaIsAveragedAndNormalized) {
  std::vector<int> y;
  const Matrix x = blob_data(40, 0.7, 9, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 10;
  forest.fit(x, y, 3, params);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto p = forest.predict_proba(x.row(i));
    ASSERT_EQ(p.size(), 3u);
    double total = 0.0;
    for (const double v : p) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(RandomForestTest, DeterministicForFixedSeed) {
  std::vector<int> y;
  const Matrix x = blob_data(40, 0.8, 11, &y);
  RandomForest a, b;
  RandomForest::Params params;
  params.num_trees = 12;
  params.seed = 777;
  a.fit(x, y, 3, params);
  b.fit(x, y, 3, params);
  EXPECT_EQ(a.predict_all(x), b.predict_all(x));
  EXPECT_DOUBLE_EQ(a.oob_accuracy(), b.oob_accuracy());
}

TEST(RandomForestTest, SeedChangesEnsemble) {
  std::vector<int> y;
  const Matrix x = blob_data(40, 1.5, 13, &y);
  RandomForest a, b;
  RandomForest::Params params;
  params.num_trees = 8;
  params.seed = 1;
  a.fit(x, y, 3, params);
  params.seed = 2;
  b.fit(x, y, 3, params);
  // Noisy data: at least one prediction probability should differ.
  bool differs = false;
  for (std::size_t i = 0; i < x.rows() && !differs; ++i) {
    differs = a.predict_proba(x.row(i)) != b.predict_proba(x.row(i));
  }
  EXPECT_TRUE(differs);
}

TEST(RandomForestTest, FeatureImportanceFindsInformativeDims) {
  std::vector<int> y;
  const Matrix x = blob_data(100, 0.5, 15, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 40;
  forest.fit(x, y, 3, params);
  const auto imp = forest.feature_importance();
  ASSERT_EQ(imp.size(), 4u);
  double total = 0.0;
  for (const double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Informative features 0 and 1 dominate the noise features 2 and 3.
  EXPECT_GT(imp[0] + imp[1], 5.0 * (imp[2] + imp[3]));
}

TEST(RandomForestTest, MoreTreesImproveNoisyAccuracy) {
  std::vector<int> y;
  const Matrix x = blob_data(80, 1.8, 17, &y);
  RandomForest small, large;
  RandomForest::Params params;
  params.num_trees = 1;
  params.seed = 5;
  small.fit(x, y, 3, params);
  params.num_trees = 60;
  large.fit(x, y, 3, params);
  EXPECT_GE(large.oob_accuracy(), small.oob_accuracy() - 0.02);
}

TEST(RandomForestTest, InputValidation) {
  RandomForest forest;
  RandomForest::Params params;
  Matrix x(2, 1, {0.0, 1.0});
  params.num_trees = 0;
  EXPECT_THROW(forest.fit(x, std::vector<int>{0, 1}, 2, params),
               icn::util::PreconditionError);
  params.num_trees = 1;
  EXPECT_THROW(forest.fit(x, std::vector<int>{0}, 2, params),
               icn::util::PreconditionError);
  EXPECT_THROW(forest.predict(std::vector<double>{1.0}),
               icn::util::PreconditionError);
  EXPECT_THROW(forest.feature_importance(), icn::util::PreconditionError);
  params.max_depth = DecisionTree::kMaxDepth + 1;
  EXPECT_THROW(forest.fit(x, std::vector<int>{0, 1}, 2, params),
               icn::util::PreconditionError);
  params.max_depth = 4;
  forest.fit(x, std::vector<int>{0, 1}, 2, params);
  EXPECT_THROW(forest.predict(std::vector<double>{1.0, 2.0}),
               icn::util::PreconditionError);  // wider than training
}

TEST(RandomForestTest, ForestDigestIsPinned) {
  // Bit-exact pins of the fit: a faster split search or node layout must
  // grow the very same trees (same cuts, thresholds, rng draws, values).
  std::vector<int> blob_y;
  const Matrix blob_x = blob_data(60, 0.8, 21, &blob_y);
  RandomForest blob;
  RandomForest::Params params;
  params.num_trees = 12;
  params.seed = 5;
  blob.fit(blob_x, blob_y, 3, params);
  EXPECT_EQ(forest_digest(blob), 0xaf920d3b942ff888ULL);

  // Random labels over K = 20 classes (more than 16, so the label needs five
  // bits) on features quantized to 1/16, so most nodes see tied values.
  icn::util::Rng rng(77);
  Matrix noise_x(300, 6);
  std::vector<int> noise_y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t f = 0; f < 6; ++f) {
      noise_x(i, f) = std::floor(rng.uniform(0.0, 1.0) * 16.0) / 16.0;
    }
    noise_y[i] = static_cast<int>(rng.uniform_index(20));
  }
  RandomForest noise;
  params.num_trees = 10;
  params.seed = 9;
  params.min_samples_leaf = 2;
  params.max_features = 3;
  noise.fit(noise_x, noise_y, 20, params);
  EXPECT_EQ(forest_digest(noise), 0x2474ad8973624cb7ULL);
}

}  // namespace
}  // namespace icn::ml
