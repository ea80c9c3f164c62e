// TreeSHAP — the polynomial-time, tree-path-dependent Shapley value algorithm
// of Lundberg et al. ("From local explanations to global understanding with
// explainable AI for trees", Nat. Mach. Intell. 2020, Algorithm 2).
//
// The paper (Sec. 5.1) explains its random-forest surrogate with TreeSHAP;
// this is a from-scratch implementation on DecisionTree's struct-of-arrays
// nodes, handling multi-class leaf values in one pass. Batches memoise each
// leaf's contributions per (leaf, hot/cold path) and stay bit-identical to
// the row-by-row computation (DESIGN.md §6.5).
//
// Semantics: the value function is the tree's *conditional expectation*
// f_S(x) = E[f(x) | x_S], where the expectation over missing features follows
// the training cover of each split. tree_conditional_expectation() exposes
// that value function directly so the tests can compare TreeSHAP against a
// brute-force exact Shapley computation.
#pragma once

#include <span>
#include <vector>

#include "ml/forest.h"
#include "ml/matrix.h"
#include "ml/tree.h"

namespace icn::ml {

/// SHAP values of a single tree at point x: an (M x K) matrix where
/// phi(f, c) is feature f's contribution to the class-c output.
/// Local accuracy holds: column sums equal predict_proba(x) - base values.
/// Every function here that takes a point requires it to have exactly the
/// model's num_features() entries (x.cols() for the batch).
[[nodiscard]] Matrix tree_shap(const DecisionTree& tree,
                               std::span<const double> x);

/// Base values (expected output over the training cover distribution) of a
/// single tree; size K.
[[nodiscard]] std::vector<double> tree_base_values(const DecisionTree& tree);

/// Forest SHAP values: mean of the member trees' SHAP matrices (M x K).
[[nodiscard]] Matrix forest_shap(const RandomForest& forest,
                                 std::span<const double> x);

/// Forest base values: mean of the member trees' base values; size K.
[[nodiscard]] std::vector<double> forest_base_values(
    const RandomForest& forest);

/// forest_shap for every row of x, computed in parallel (one explanation per
/// row; each row still accumulates trees in index order, so the result is
/// bit-identical to calling forest_shap row by row).
[[nodiscard]] std::vector<Matrix> forest_shap_batch(const RandomForest& forest,
                                                    const Matrix& x);

/// The tree-path-dependent value function v(S) = E[f(x) | x_S]: features with
/// present[f] == true follow x, absent features average the children weighted
/// by training cover. Size-K output. Requires present.size() == #features.
[[nodiscard]] std::vector<double> tree_conditional_expectation(
    const DecisionTree& tree, std::span<const double> x,
    const std::vector<bool>& present);

/// Same value function for the whole forest (mean over trees).
[[nodiscard]] std::vector<double> forest_conditional_expectation(
    const RandomForest& forest, std::span<const double> x,
    const std::vector<bool>& present);

}  // namespace icn::ml
