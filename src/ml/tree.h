// CART decision-tree classifier, the building block of the random-forest
// surrogate used in Sec. 5.1.2 to make the clustering explainable.
//
// Nodes are stored struct-of-arrays (feature, threshold, children, cover)
// with one k-strided array of per-node class distributions, which is exactly
// the structure TreeSHAP (Lundberg et al. 2020) walks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/matrix.h"
#include "util/rng.h"

namespace icn::ml {

/// Read-only view of one node of a fitted decision tree.
struct TreeNode {
  int feature = -1;      ///< Split feature; -1 marks a leaf.
  double threshold = 0;  ///< Split rule: go left when x[feature] <= threshold.
  int left = -1;         ///< Left child index (-1 for leaves).
  int right = -1;        ///< Right child index (-1 for leaves).
  double cover = 0;      ///< Number of training samples that reach this node.
  std::span<const double> value;  ///< Class probability distribution.

  [[nodiscard]] bool is_leaf() const { return feature < 0; }
};

/// Every feature of a training matrix ranked once: rank(f)[i] orders row i
/// among the distinct values of feature f (equal values share a rank), and
/// distinct(f)[r] is the r-th smallest of them. The split search sorts these
/// integer ranks instead of the doubles; the thresholds it derives are
/// midpoints of the same doubles either way.
class FeatureRanks {
 public:
  /// Ranks every column of x (in parallel over columns).
  explicit FeatureRanks(const Matrix& x);

  [[nodiscard]] std::span<const std::uint32_t> rank(std::size_t f) const {
    return {ranks_.data() + f * rows_, rows_};
  }
  [[nodiscard]] const std::vector<double>& distinct(std::size_t f) const {
    return distinct_[f];
  }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return distinct_.size(); }

 private:
  std::size_t rows_ = 0;
  std::vector<std::uint32_t> ranks_;  ///< Column-major, rows_ per feature.
  std::vector<std::vector<double>> distinct_;
};

/// CART classifier with Gini impurity splits.
class DecisionTree {
 public:
  /// Deepest tree fit() accepts: TreeSHAP keys a leaf visit by a 64-bit mask
  /// holding one hot/cold bit per split on the root-to-leaf path.
  static constexpr std::size_t kMaxDepth = 64;

  /// Training hyper-parameters.
  struct Params {
    std::size_t max_depth = 32;         ///< Depth cap (root = 0), <= kMaxDepth.
    std::size_t min_samples_leaf = 1;   ///< Minimum samples per leaf.
    std::size_t min_samples_split = 2;  ///< Minimum samples to try a split.
    /// Number of features sampled (without replacement) per split;
    /// 0 means "all features". Random forests use ~sqrt(M).
    std::size_t max_features = 0;
  };

  /// Fits the tree on rows `sample_idx` of x (all rows when empty).
  /// Labels must lie in [0, num_classes). Duplicated indices (bootstrap
  /// samples) are allowed. Requires x.rows() == y.size(), non-empty data,
  /// params.max_depth <= kMaxDepth and at most 2^26 sampled rows.
  void fit(const Matrix& x, std::span<const int> y, int num_classes,
           const Params& params, icn::util::Rng& rng,
           std::span<const std::size_t> sample_idx = {});

  /// fit() with the ranks of x computed once by the caller (a forest shares
  /// them across its trees). Requires ranks to be FeatureRanks(x).
  void fit(const Matrix& x, const FeatureRanks& ranks, std::span<const int> y,
           int num_classes, const Params& params, icn::util::Rng& rng,
           std::span<const std::size_t> sample_idx = {});

  /// True once fit() has produced at least a root node.
  [[nodiscard]] bool is_fitted() const { return !feature_.empty(); }

  /// Number of nodes; node 0 is the root.
  [[nodiscard]] std::size_t num_nodes() const { return feature_.size(); }

  /// Node i, for i < num_nodes().
  [[nodiscard]] TreeNode node(std::size_t i) const {
    return {feature_[i], threshold_[i], left_[i], right_[i], cover_[i],
            value(i)};
  }

  /// Class distribution at node i (num_classes() entries).
  [[nodiscard]] std::span<const double> value(std::size_t i) const {
    const auto k = static_cast<std::size_t>(num_classes_);
    return {value_.data() + i * k, k};
  }

  /// Number of classes the tree was fitted with.
  [[nodiscard]] int num_classes() const { return num_classes_; }

  /// Number of features the tree was fitted with.
  [[nodiscard]] std::size_t num_features() const { return num_features_; }

  /// Depth of the deepest leaf (0 for a single-leaf tree).
  [[nodiscard]] std::size_t depth() const { return depth_; }

  /// Index of the leaf x falls into. Requires is_fitted() and
  /// x.size() == num_features().
  [[nodiscard]] std::size_t leaf_index(std::span<const double> x) const;

  /// Class distribution at the leaf x falls into (same requirements).
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> x) const;

  /// Arg-max class of predict_proba.
  [[nodiscard]] int predict(std::span<const double> x) const;

  /// Total Gini-impurity decrease contributed by each feature (unnormalized);
  /// size = number of training features.
  [[nodiscard]] const std::vector<double>& impurity_importance() const {
    return importance_;
  }

 private:
  struct Build;

  std::vector<int> feature_;
  std::vector<double> threshold_;
  std::vector<int> left_;
  std::vector<int> right_;
  std::vector<double> cover_;
  std::vector<double> value_;  ///< num_classes_ entries per node.
  int num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::size_t depth_ = 0;
  std::vector<double> importance_;

  int build(Build& b, std::size_t begin, std::size_t end, std::size_t depth);
};

}  // namespace icn::ml
