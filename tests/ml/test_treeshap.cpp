#include "ml/treeshap.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ml/exactshap.h"
#include "util/error.h"
#include "util/rng.h"

namespace icn::ml {
namespace {

/// Noisy multi-class data in `m` dims where the label depends on the first
/// two features.
Matrix make_data(std::size_t n, std::size_t m, std::uint64_t seed,
                 std::vector<int>* labels) {
  icn::util::Rng rng(seed);
  Matrix x(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < m; ++f) x(i, f) = rng.uniform(-1.0, 1.0);
    const int label = (x(i, 0) > 0.0 ? 1 : 0) + (x(i, 1) > 0.3 ? 2 : 0);
    labels->push_back(label % 3);
  }
  return x;
}

/// Three tight Gaussian blobs in `m` dims, labelled by blob: most rows of a
/// blob take the same hot/cold turns through a tree.
Matrix blob_data(std::size_t per_blob, std::size_t m, std::uint64_t seed,
                 std::vector<int>* labels) {
  icn::util::Rng rng(seed);
  Matrix x(per_blob * 3, m);
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      const std::size_t r = b * per_blob + i;
      for (std::size_t f = 0; f < m; ++f) {
        const double center = f == b ? 4.0 : 0.0;
        x(r, f) = center + rng.normal(0.0, 0.6);
      }
      labels->push_back(static_cast<int>(b));
    }
  }
  return x;
}

/// FNV-1a over the raw bytes of every explanation of a batch.
std::uint64_t shap_digest(const std::vector<Matrix>& batch) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Matrix& phi : batch) {
    for (const double v : phi.data()) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
      for (std::size_t i = 0; i < sizeof(double); ++i) {
        h = (h ^ bytes[i]) * 0x100000001b3ULL;
      }
    }
  }
  return h;
}

DecisionTree fit_tree(const Matrix& x, const std::vector<int>& y, int k,
                      std::size_t max_depth = 6) {
  DecisionTree tree;
  DecisionTree::Params params;
  params.max_depth = max_depth;
  icn::util::Rng rng(5);
  tree.fit(x, y, k, params, rng);
  return tree;
}

TEST(TreeShapTest, LocalAccuracySingleTree) {
  std::vector<int> y;
  const Matrix x = make_data(200, 5, 3, &y);
  const auto tree = fit_tree(x, y, 3);
  const auto base = tree_base_values(tree);
  for (std::size_t i = 0; i < 25; ++i) {
    const Matrix phi = tree_shap(tree, x.row(i));
    const auto pred = tree.predict_proba(x.row(i));
    for (std::size_t c = 0; c < 3; ++c) {
      double total = base[c];
      for (std::size_t f = 0; f < 5; ++f) total += phi(f, c);
      EXPECT_NEAR(total, pred[c], 1e-9)
          << "sample " << i << " class " << c;
    }
  }
}

TEST(TreeShapTest, MatchesExactShapleyOnTreeValueFunction) {
  // The gold test: TreeSHAP must equal brute-force Shapley values of the
  // tree's conditional-expectation value function.
  std::vector<int> y;
  const std::size_t m = 6;
  const Matrix x = make_data(150, m, 7, &y);
  const auto tree = fit_tree(x, y, 3, 5);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto row = x.row(i);
    const ValueFunction v = [&](const std::vector<bool>& present) {
      return tree_conditional_expectation(tree, row, present);
    };
    const Matrix exact = exact_shapley(v, m, 3);
    const Matrix fast = tree_shap(tree, row);
    for (std::size_t f = 0; f < m; ++f) {
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_NEAR(fast(f, c), exact(f, c), 1e-9)
            << "sample " << i << " feature " << f << " class " << c;
      }
    }
  }
}

TEST(TreeShapTest, RepeatedSplitFeatureHandled) {
  // Deep tree on 2 features forces the same feature to appear repeatedly on
  // a path — the unwind branch of Algorithm 2.
  std::vector<int> y;
  const Matrix x = make_data(300, 2, 11, &y);
  const auto tree = fit_tree(x, y, 3, 10);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto row = x.row(i);
    const ValueFunction v = [&](const std::vector<bool>& present) {
      return tree_conditional_expectation(tree, row, present);
    };
    const Matrix exact = exact_shapley(v, 2, 3);
    const Matrix fast = tree_shap(tree, row);
    for (std::size_t f = 0; f < 2; ++f) {
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_NEAR(fast(f, c), exact(f, c), 1e-9);
      }
    }
  }
}

TEST(TreeShapTest, UnusedFeatureGetsZero) {
  // Label depends only on feature 0; feature 1 never splits.
  Matrix x(100, 2);
  std::vector<int> y;
  icn::util::Rng rng(13);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    x(i, 1) = 0.0;  // constant, unusable
    y.push_back(x(i, 0) > 0.0 ? 1 : 0);
  }
  const auto tree = fit_tree(x, y, 2);
  const Matrix phi = tree_shap(tree, x.row(0));
  EXPECT_DOUBLE_EQ(phi(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(phi(1, 1), 0.0);
  EXPECT_NE(phi(0, 1), 0.0);
}

TEST(TreeShapTest, SymmetryAxiom) {
  // Two interchangeable features (XOR-free duplicated axis): equal
  // contributions for a point treated symmetrically.
  Matrix x(4, 2, {0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0});
  const std::vector<int> y = {0, 0, 0, 1};  // AND of the two features
  DecisionTree tree;
  icn::util::Rng rng(3);
  tree.fit(x, y, 2, {}, rng);
  const std::vector<double> point = {1.0, 1.0};
  const Matrix phi = tree_shap(tree, point);
  EXPECT_NEAR(phi(0, 1), phi(1, 1), 1e-9);
}

TEST(TreeShapTest, BaseValuesAreCoverWeightedPriors) {
  std::vector<int> y;
  const Matrix x = make_data(100, 3, 17, &y);
  const auto tree = fit_tree(x, y, 3);
  const auto base = tree_base_values(tree);
  // Root value == class frequencies of the training set.
  std::vector<double> freq(3, 0.0);
  for (const int label : y) freq[static_cast<std::size_t>(label)] += 1.0;
  for (auto& f : freq) f /= static_cast<double>(y.size());
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(base[c], freq[c], 1e-9);
  }
}

TEST(ForestShapTest, LocalAccuracyForForest) {
  std::vector<int> y;
  const Matrix x = make_data(200, 5, 19, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 15;
  forest.fit(x, y, 3, params);
  const auto base = forest_base_values(forest);
  for (std::size_t i = 0; i < 10; ++i) {
    const Matrix phi = forest_shap(forest, x.row(i));
    const auto pred = forest.predict_proba(x.row(i));
    for (std::size_t c = 0; c < 3; ++c) {
      double total = base[c];
      for (std::size_t f = 0; f < 5; ++f) total += phi(f, c);
      EXPECT_NEAR(total, pred[c], 1e-9);
    }
  }
}

TEST(ForestShapTest, ClassContributionsSumToZeroAcrossClasses) {
  // Probability outputs sum to 1 for every input and for the base values,
  // so each feature's SHAP contributions must sum to ~0 across classes:
  // features only reallocate probability mass between classes.
  std::vector<int> y;
  const Matrix x = make_data(150, 5, 41, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 12;
  forest.fit(x, y, 3, params);
  for (std::size_t i = 0; i < 10; ++i) {
    const Matrix phi = forest_shap(forest, x.row(i));
    for (std::size_t f = 0; f < 5; ++f) {
      double across = 0.0;
      for (std::size_t c = 0; c < 3; ++c) across += phi(f, c);
      EXPECT_NEAR(across, 0.0, 1e-9) << "feature " << f;
    }
  }
}

TEST(ForestShapTest, IsMeanOfTreeShap) {
  std::vector<int> y;
  const Matrix x = make_data(120, 4, 23, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 7;
  forest.fit(x, y, 3, params);
  const auto row = x.row(3);
  const Matrix total = forest_shap(forest, row);
  Matrix acc(4, 3);
  for (const auto& tree : forest.trees()) {
    const Matrix phi = tree_shap(tree, row);
    for (std::size_t i = 0; i < acc.data().size(); ++i) {
      acc.data()[i] += phi.data()[i] / 7.0;
    }
  }
  for (std::size_t i = 0; i < acc.data().size(); ++i) {
    EXPECT_NEAR(total.data()[i], acc.data()[i], 1e-12);
  }
}

TEST(ForestShapTest, ShapDigestIsPinned) {
  // Bit-exact pins of the explanation: a faster walker must reproduce every
  // SHAP value bit for bit. The clustered fixture repeats (leaf, hot/cold
  // path) pairs across rows; the random-label one rarely does.
  std::vector<int> blob_y;
  const Matrix blob_x = blob_data(60, 5, 3, &blob_y);
  RandomForest blob;
  RandomForest::Params params;
  params.num_trees = 20;
  params.seed = 8;
  blob.fit(blob_x, blob_y, 3, params);
  const auto blob_phi = forest_shap_batch(blob, blob_x);
  EXPECT_EQ(shap_digest(blob_phi), 0xfb320bcc4df306bcULL);

  icn::util::Rng rng(91);
  Matrix noise_x(240, 8);
  std::vector<int> noise_y(240);
  for (std::size_t i = 0; i < 240; ++i) {
    for (std::size_t f = 0; f < 8; ++f) noise_x(i, f) = rng.uniform(-1.0, 1.0);
    noise_y[i] = static_cast<int>(rng.uniform_index(5));
  }
  RandomForest noise;
  params.num_trees = 10;
  params.max_depth = 12;
  noise.fit(noise_x, noise_y, 5, params);
  const auto noise_phi = forest_shap_batch(noise, noise_x);
  EXPECT_EQ(shap_digest(noise_phi), 0x47b342f08725e066ULL);
}

TEST(ForestShapTest, SingleRowMatchesBatchBitForBit) {
  std::vector<int> y;
  const Matrix x = blob_data(50, 4, 12, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 9;
  forest.fit(x, y, 3, params);
  const auto batch = forest_shap_batch(forest, x);
  ASSERT_EQ(batch.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const Matrix single = forest_shap(forest, x.row(r));
    ASSERT_EQ(single.data().size(), batch[r].data().size());
    for (std::size_t i = 0; i < single.data().size(); ++i) {
      ASSERT_EQ(std::memcmp(&single.data()[i], &batch[r].data()[i],
                            sizeof(double)),
                0)
          << "row " << r << " slot " << i;
    }
  }
}

TEST(ForestShapTest, EmptyBatchIsEmpty) {
  std::vector<int> y;
  const Matrix x = make_data(40, 3, 17, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 2;
  forest.fit(x, y, 3, params);
  EXPECT_TRUE(forest_shap_batch(forest, Matrix(0, 3)).empty());
}

TEST(ForestShapTest, ShapValidatesFeatureCount) {
  // A row narrower (or wider) than the training matrix is refused instead
  // of being read past its end.
  std::vector<int> y;
  const Matrix x = make_data(80, 4, 43, &y);
  RandomForest forest;
  RandomForest::Params params;
  params.num_trees = 3;
  forest.fit(x, y, 3, params);
  const DecisionTree& tree = forest.trees().front();
  EXPECT_EQ(forest.num_features(), 4u);
  EXPECT_EQ(tree.num_features(), 4u);
  for (const std::size_t width : {std::size_t{2}, std::size_t{5}}) {
    const std::vector<double> row(width, 0.0);
    EXPECT_THROW(tree_shap(tree, row), icn::util::PreconditionError);
    EXPECT_THROW(forest_shap(forest, row), icn::util::PreconditionError);
    EXPECT_THROW(forest_shap_batch(forest, Matrix(2, width)),
                 icn::util::PreconditionError);
    EXPECT_THROW(
        tree_conditional_expectation(tree, row, std::vector<bool>(width)),
        icn::util::PreconditionError);
  }
}

TEST(ConditionalExpectationTest, FullMaskIsPrediction) {
  std::vector<int> y;
  const Matrix x = make_data(150, 4, 29, &y);
  const auto tree = fit_tree(x, y, 3);
  const std::vector<bool> all(4, true);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto v = tree_conditional_expectation(tree, x.row(i), all);
    const auto pred = tree.predict_proba(x.row(i));
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(v[c], pred[c], 1e-12);
  }
}

TEST(ConditionalExpectationTest, EmptyMaskIsBaseValue) {
  std::vector<int> y;
  const Matrix x = make_data(150, 4, 31, &y);
  const auto tree = fit_tree(x, y, 3);
  const std::vector<bool> none(4, false);
  const auto v = tree_conditional_expectation(tree, x.row(0), none);
  const auto base = tree_base_values(tree);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(v[c], base[c], 1e-12);
}

TEST(ConditionalExpectationTest, MaskSizeValidated) {
  std::vector<int> y;
  const Matrix x = make_data(50, 3, 37, &y);
  const auto tree = fit_tree(x, y, 3);
  EXPECT_THROW(
      tree_conditional_expectation(tree, x.row(0), std::vector<bool>(2)),
      icn::util::PreconditionError);
}

TEST(ExactShapleyTest, LinearGameHasAdditiveValues) {
  // v(S) = sum of weights of members: phi_i == w_i exactly.
  const std::vector<double> w = {1.0, 2.0, -0.5, 3.0};
  const ValueFunction v = [&](const std::vector<bool>& present) {
    double total = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (present[i]) total += w[i];
    }
    return std::vector<double>{total};
  };
  const Matrix phi = exact_shapley(v, 4, 1);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(phi(i, 0), w[i], 1e-12);
  }
}

TEST(ExactShapleyTest, EfficiencyAxiom) {
  // For any game: sum phi = v(full) - v(empty).
  const ValueFunction v = [](const std::vector<bool>& present) {
    double total = 1.0;
    for (std::size_t i = 0; i < present.size(); ++i) {
      if (present[i]) total *= 1.0 + static_cast<double>(i);
    }
    return std::vector<double>{total};
  };
  const std::size_t m = 5;
  const Matrix phi = exact_shapley(v, m, 1);
  double total = 0.0;
  for (std::size_t i = 0; i < m; ++i) total += phi(i, 0);
  const double v_full = 1.0 * 1 * 2 * 3 * 4 * 5;
  EXPECT_NEAR(total, v_full - 1.0, 1e-9);
}

TEST(ExactShapleyTest, ValidatesArguments) {
  const ValueFunction v = [](const std::vector<bool>&) {
    return std::vector<double>{0.0};
  };
  EXPECT_THROW(exact_shapley(v, 0, 1), icn::util::PreconditionError);
  EXPECT_THROW(exact_shapley(v, 21, 1), icn::util::PreconditionError);
  EXPECT_THROW(exact_shapley(v, 2, 0), icn::util::PreconditionError);
}

}  // namespace
}  // namespace icn::ml
