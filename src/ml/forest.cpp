#include "ml/forest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.h"
#include "util/parallel.h"

namespace icn::ml {

void RandomForest::fit(const Matrix& x, std::span<const int> y,
                       int num_classes, const Params& params) {
  ICN_REQUIRE(x.rows() == y.size() && x.rows() > 0, "forest fit input shape");
  ICN_REQUIRE(params.num_trees > 0, "forest needs >= 1 tree");
  ICN_REQUIRE(params.max_depth <= DecisionTree::kMaxDepth,
              "forest max_depth");
  trees_.clear();
  trees_.resize(params.num_trees);
  num_classes_ = num_classes;
  num_features_ = x.cols();

  DecisionTree::Params tree_params;
  tree_params.max_depth = params.max_depth;
  tree_params.min_samples_leaf = params.min_samples_leaf;
  tree_params.max_features =
      params.max_features != 0
          ? params.max_features
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::sqrt(static_cast<double>(x.cols()))));

  const std::size_t n = x.rows();
  // Every tree sorts the same columns: rank them once for the whole forest.
  const FeatureRanks ranks(x);

  // Each tree's randomness comes from its own seed stream derived up front
  // (never from a shared generator), so trees can be fitted in any order —
  // and on any number of threads — and come out identical to a serial build.
  // The bootstrap membership of every tree is kept so the OOB pass below can
  // run per row.
  std::vector<std::vector<bool>> in_bag;
  if (params.bootstrap) in_bag.resize(params.num_trees);
  icn::util::parallel_for(
      0, params.num_trees, 1, [&](std::size_t lo, std::size_t hi) {
        std::vector<std::size_t> sample;
        for (std::size_t t = lo; t < hi; ++t) {
          icn::util::Rng rng(icn::util::derive_seed(params.seed, t));
          sample.clear();
          if (params.bootstrap) {
            in_bag[t].assign(n, false);
            for (std::size_t i = 0; i < n; ++i) {
              const std::size_t pick = rng.uniform_index(n);
              sample.push_back(pick);
              in_bag[t][pick] = true;
            }
          } else {
            sample.resize(n);
            std::iota(sample.begin(), sample.end(), std::size_t{0});
          }
          trees_[t].fit(x, ranks, y, num_classes, tree_params, rng, sample);
        }
      });

  if (params.bootstrap) {
    // OOB votes accumulate per row over the trees in index order (the same
    // addition order as a serial tree-major loop for any fixed row), so the
    // estimate does not depend on the thread count.
    const auto k = static_cast<std::size_t>(num_classes);
    std::vector<double> oob_votes(n * k, 0.0);
    std::vector<bool> oob_touched(n, false);
    icn::util::parallel_for(0, n, 64, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        double* votes = oob_votes.data() + i * k;
        for (std::size_t t = 0; t < params.num_trees; ++t) {
          if (in_bag[t][i]) continue;
          const auto proba = trees_[t].value(trees_[t].leaf_index(x.row(i)));
          for (std::size_t c = 0; c < k; ++c) votes[c] += proba[c];
          oob_touched[i] = true;
        }
      }
    });
    std::size_t covered = 0, hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!oob_touched[i]) continue;
      ++covered;
      const auto votes = oob_votes.begin() + static_cast<std::ptrdiff_t>(i * k);
      const int pred = static_cast<int>(
          std::max_element(votes, votes + static_cast<std::ptrdiff_t>(k)) -
          votes);
      if (pred == y[i]) ++hits;
    }
    oob_accuracy_ = covered == 0
                        ? std::numeric_limits<double>::quiet_NaN()
                        : static_cast<double>(hits) /
                              static_cast<double>(covered);
  } else {
    oob_accuracy_ = std::numeric_limits<double>::quiet_NaN();
  }
}

void RandomForest::mean_proba(std::span<const double> x,
                              std::span<double> proba) const {
  ICN_REQUIRE(is_fitted(), "predict on unfitted forest");
  ICN_REQUIRE(x.size() == num_features_, "predict feature count");
  std::fill(proba.begin(), proba.end(), 0.0);
  for (const auto& tree : trees_) {
    const auto p = tree.value(tree.leaf_index(x));
    for (std::size_t c = 0; c < p.size(); ++c) proba[c] += p[c];
  }
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (auto& p : proba) p *= inv;
}

std::vector<double> RandomForest::predict_proba(
    std::span<const double> x) const {
  std::vector<double> proba(static_cast<std::size_t>(num_classes_));
  mean_proba(x, proba);
  return proba;
}

int RandomForest::predict(std::span<const double> x) const {
  const auto proba = predict_proba(x);
  return static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

std::vector<int> RandomForest::predict_all(const Matrix& x) const {
  std::vector<int> out(x.rows());
  icn::util::parallel_for(
      0, x.rows(), 32, [&](std::size_t lo, std::size_t hi) {
        std::vector<double> proba(static_cast<std::size_t>(num_classes_));
        for (std::size_t i = lo; i < hi; ++i) {
          mean_proba(x.row(i), proba);
          out[i] = static_cast<int>(
              std::max_element(proba.begin(), proba.end()) - proba.begin());
        }
      });
  return out;
}

std::vector<double> RandomForest::feature_importance() const {
  ICN_REQUIRE(is_fitted(), "importance on unfitted forest");
  std::vector<double> imp(num_features_, 0.0);
  for (const auto& tree : trees_) {
    const auto& ti = tree.impurity_importance();
    for (std::size_t f = 0; f < imp.size(); ++f) imp[f] += ti[f];
  }
  const double total = std::accumulate(imp.begin(), imp.end(), 0.0);
  if (total > 0.0) {
    for (auto& v : imp) v /= total;
  }
  return imp;
}

}  // namespace icn::ml
