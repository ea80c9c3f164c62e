// Random-forest classifier: the surrogate supervised learner trained on the
// clustering labels (Sec. 5.1.2, "a random forest classifier with 100
// trees"), later explained with TreeSHAP and reused to classify outdoor
// antennas (Sec. 5.3.2).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/matrix.h"
#include "ml/tree.h"
#include "util/rng.h"

namespace icn::ml {

/// Bagged ensemble of CART trees with feature subsampling.
class RandomForest {
 public:
  /// Training hyper-parameters.
  struct Params {
    std::size_t num_trees = 100;        ///< Paper uses 100 trees.
    std::size_t max_depth = 32;         ///< Per-tree depth cap.
    std::size_t min_samples_leaf = 1;   ///< Per-leaf sample floor.
    /// Features tried per split; 0 = floor(sqrt(M)) (classification default).
    std::size_t max_features = 0;
    bool bootstrap = true;              ///< Sample rows with replacement.
    std::uint64_t seed = 42;            ///< Seed for all trees' randomness.
  };

  /// Fits the ensemble. Labels must lie in [0, num_classes).
  /// Requires x.rows() == y.size(), non-empty data, num_classes >= 1 and
  /// max_depth <= DecisionTree::kMaxDepth.
  void fit(const Matrix& x, std::span<const int> y, int num_classes,
           const Params& params);

  [[nodiscard]] bool is_fitted() const { return !trees_.empty(); }
  [[nodiscard]] int num_classes() const { return num_classes_; }
  [[nodiscard]] std::size_t num_features() const { return num_features_; }
  [[nodiscard]] const std::vector<DecisionTree>& trees() const {
    return trees_;
  }

  /// Mean of the member trees' leaf class distributions. Requires
  /// x.size() == num_features().
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> x) const;

  /// Arg-max class of predict_proba.
  [[nodiscard]] int predict(std::span<const double> x) const;

  /// Predicts every row of x.
  [[nodiscard]] std::vector<int> predict_all(const Matrix& x) const;

  /// Out-of-bag accuracy estimate computed during fit (bootstrap only;
  /// NaN when bootstrap was disabled or no row was ever out of bag).
  [[nodiscard]] double oob_accuracy() const { return oob_accuracy_; }

  /// Mean-decrease-in-impurity feature importance, normalized to sum to 1
  /// (all-zero when no split was ever made).
  [[nodiscard]] std::vector<double> feature_importance() const;

 private:
  std::vector<DecisionTree> trees_;
  int num_classes_ = 0;
  std::size_t num_features_ = 0;
  double oob_accuracy_ = 0.0;

  /// Writes the mean leaf distribution at x into proba (num_classes_ long):
  /// the trees' leaf values summed in index order, then scaled by 1/trees.
  void mean_proba(std::span<const double> x, std::span<double> proba) const;
};

}  // namespace icn::ml
