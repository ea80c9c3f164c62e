// Exact Shapley values by subset enumeration (Eq. 4 of the paper).
//
// Exponential in the number of features, so only usable for small M — this
// is the ground truth the tests compare TreeSHAP against.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "ml/matrix.h"

namespace icn::ml {

/// A coalition value function: maps a feature-presence mask to the (size-K)
/// model output with the absent features marginalized out.
using ValueFunction =
    std::function<std::vector<double>(const std::vector<bool>&)>;

/// Exact Shapley values phi (M x K) by enumerating all 2^M coalitions:
///   phi_i = sum_{S not containing i} |S|!(M-|S|-1)!/M! * (v(S+i) - v(S)).
/// Requires 1 <= num_features <= 20 (cost 2^M evaluations of v).
[[nodiscard]] Matrix exact_shapley(const ValueFunction& v,
                                   std::size_t num_features,
                                   std::size_t num_outputs);

}  // namespace icn::ml
