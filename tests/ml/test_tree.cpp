#include "ml/tree.h"

#include <gtest/gtest.h>

#include <numeric>

#include "ml/metrics.h"
#include "util/error.h"
#include "util/rng.h"

namespace icn::ml {
namespace {

/// Labels = quadrant of the 2D point (axis-aligned, perfectly separable).
Matrix quadrant_data(std::size_t n, std::uint64_t seed,
                     std::vector<int>* labels) {
  icn::util::Rng rng(seed);
  Matrix x(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    x(i, 1) = rng.uniform(-1.0, 1.0);
    labels->push_back((x(i, 0) > 0.0 ? 1 : 0) + (x(i, 1) > 0.0 ? 2 : 0));
  }
  return x;
}

DecisionTree fit_tree(const Matrix& x, const std::vector<int>& y, int k,
                      DecisionTree::Params params = {},
                      std::uint64_t seed = 42) {
  DecisionTree tree;
  icn::util::Rng rng(seed);
  tree.fit(x, y, k, params, rng);
  return tree;
}

TEST(DecisionTreeTest, FitsPureLeafOnConstantLabels) {
  Matrix x(4, 1, {1.0, 2.0, 3.0, 4.0});
  const std::vector<int> y = {1, 1, 1, 1};
  const auto tree = fit_tree(x, y, 2);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_TRUE(tree.node(0).is_leaf());
  EXPECT_EQ(tree.predict(std::vector<double>{0.0}), 1);
}

TEST(DecisionTreeTest, SeparableDataPerfectlyClassified) {
  std::vector<int> y;
  const Matrix x = quadrant_data(200, 7, &y);
  const auto tree = fit_tree(x, y, 4);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(tree.predict(x.row(i)), y[i]);
  }
}

TEST(DecisionTreeTest, ProbaSumsToOne) {
  std::vector<int> y;
  const Matrix x = quadrant_data(100, 9, &y);
  const auto tree = fit_tree(x, y, 4);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto p = tree.predict_proba(x.row(i));
    double total = 0.0;
    for (const double v : p) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(DecisionTreeTest, DepthLimitRespected) {
  std::vector<int> y;
  const Matrix x = quadrant_data(200, 11, &y);
  DecisionTree::Params params;
  params.max_depth = 1;
  const auto tree = fit_tree(x, y, 4, params);
  // Depth 1 = a root with two leaves.
  EXPECT_LE(tree.num_nodes(), 3u);
  EXPECT_LE(tree.depth(), 1u);
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  std::vector<int> y;
  const Matrix x = quadrant_data(50, 13, &y);
  DecisionTree::Params params;
  params.min_samples_leaf = 10;
  const auto tree = fit_tree(x, y, 4, params);
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode node = tree.node(i);
    if (node.is_leaf()) {
      EXPECT_GE(node.cover, 10.0);
    }
  }
}

TEST(DecisionTreeTest, CoverAccountsForAllSamples) {
  std::vector<int> y;
  const Matrix x = quadrant_data(80, 15, &y);
  const auto tree = fit_tree(x, y, 4);
  EXPECT_DOUBLE_EQ(tree.node(0).cover, 80.0);
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode node = tree.node(i);
    if (!node.is_leaf()) {
      const double child_sum =
          tree.node(static_cast<std::size_t>(node.left)).cover +
          tree.node(static_cast<std::size_t>(node.right)).cover;
      EXPECT_DOUBLE_EQ(node.cover, child_sum);
    }
  }
}

TEST(DecisionTreeTest, NodeValuesAreCoverWeightedChildMeans) {
  std::vector<int> y;
  const Matrix x = quadrant_data(120, 17, &y);
  const auto tree = fit_tree(x, y, 4);
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode node = tree.node(i);
    if (node.is_leaf()) continue;
    const TreeNode l = tree.node(static_cast<std::size_t>(node.left));
    const TreeNode r = tree.node(static_cast<std::size_t>(node.right));
    for (std::size_t c = 0; c < node.value.size(); ++c) {
      const double expected =
          (l.cover * l.value[c] + r.cover * r.value[c]) / node.cover;
      EXPECT_NEAR(node.value[c], expected, 1e-9);
    }
  }
}

TEST(DecisionTreeTest, BootstrapSampleIndicesUsed) {
  Matrix x(4, 1, {0.0, 1.0, 10.0, 11.0});
  const std::vector<int> y = {0, 0, 1, 1};
  DecisionTree tree;
  icn::util::Rng rng(1);
  // Train only on the low cluster: tree must predict 0 everywhere.
  const std::vector<std::size_t> sample = {0, 1, 0, 1};
  tree.fit(x, y, 2, {}, rng, sample);
  EXPECT_EQ(tree.predict(std::vector<double>{10.5}), 0);
}

TEST(DecisionTreeTest, ImportanceConcentratesOnInformativeFeature) {
  // Feature 1 is pure noise; feature 0 fully determines the label.
  icn::util::Rng rng(19);
  Matrix x(300, 2);
  std::vector<int> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    x(i, 1) = rng.uniform(-1.0, 1.0);
    y[i] = x(i, 0) > 0.2 ? 1 : 0;
  }
  const auto tree = fit_tree(x, y, 2);
  const auto& imp = tree.impurity_importance();
  EXPECT_GT(imp[0], imp[1] * 10.0);
}

TEST(DecisionTreeTest, InputValidation) {
  DecisionTree tree;
  icn::util::Rng rng(1);
  Matrix x(2, 1, {0.0, 1.0});
  EXPECT_THROW(tree.fit(x, std::vector<int>{0}, 2, {}, rng),
               icn::util::PreconditionError);
  EXPECT_THROW(tree.fit(x, std::vector<int>{0, 5}, 2, {}, rng),
               icn::util::PreconditionError);
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}),
               icn::util::PreconditionError);  // unfitted
  // TreeSHAP keys leaf visits by a 64-bit hot/cold mask: deeper trees are
  // refused up front.
  DecisionTree::Params deep;
  deep.max_depth = DecisionTree::kMaxDepth + 1;
  EXPECT_THROW(tree.fit(x, std::vector<int>{0, 1}, 2, deep, rng),
               icn::util::PreconditionError);
  deep.max_depth = DecisionTree::kMaxDepth;
  tree.fit(x, std::vector<int>{0, 1}, 2, deep, rng);
  EXPECT_EQ(tree.num_features(), 1u);
}

TEST(DecisionTreeTest, PredictValidatesFeatureCount) {
  std::vector<int> y;
  const Matrix x = quadrant_data(40, 21, &y);
  const auto tree = fit_tree(x, y, 4);
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}),
               icn::util::PreconditionError);
}

TEST(DecisionTreeTest, FeatureSubsamplingStillLearns) {
  std::vector<int> y;
  const Matrix x = quadrant_data(400, 23, &y);
  DecisionTree::Params params;
  params.max_features = 1;  // random single feature per split
  const auto tree = fit_tree(x, y, 4, params);
  std::vector<int> pred(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) pred[i] = tree.predict(x.row(i));
  EXPECT_GT(accuracy(pred, y), 0.95);
}

}  // namespace
}  // namespace icn::ml
