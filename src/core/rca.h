// Revealed comparative advantage transforms (Sec. 4.1).
//
// RCA (Balassa 1965, Eq. 1) quantifies over-/under-utilization of a service
// at an antenna relative to the whole network; RSCA (Laursen & Engedal,
// Eq. 2) is its symmetric variant in [-1, 1], which removes the unbounded
// over-utilization tail that would otherwise drag cluster barycentres.
// compute_outdoor_rca implements Eq. 5: outdoor antennas measured against the
// *indoor* utilization baseline.
#pragma once

#include "ml/matrix.h"

namespace icn::core {

/// Eq. 1: RCA(i,j) = (T(i,j)/T(i)) / (T(j)/T_tot).
///
/// Requires a non-empty matrix with finite, non-negative entries and every
/// row sum positive (every antenna carried some traffic). Services with zero
/// global traffic get neutral RCA = 1 for every antenna (no information).
[[nodiscard]] ml::Matrix compute_rca(const ml::Matrix& traffic);

/// Eq. 2: RSCA = (RCA - 1) / (RCA + 1), element-wise; output in [-1, 1].
/// Requires every RCA finite and non-negative.
[[nodiscard]] ml::Matrix rca_to_rsca(const ml::Matrix& rca);

/// compute_rca followed by rca_to_rsca.
[[nodiscard]] ml::Matrix compute_rsca(const ml::Matrix& traffic);

/// Eq. 5: RCA of outdoor antennas against the indoor utilization baseline:
/// RCA_out(i,j) = (T_out(i,j)/T_out(i)) / (T_in(j)/T_tot_in).
/// Requires matching service dimensions, finite non-negative entries and
/// positive row sums on both sides.
[[nodiscard]] ml::Matrix compute_outdoor_rca(const ml::Matrix& outdoor_traffic,
                                             const ml::Matrix& indoor_traffic);

/// Eq. 5 + Eq. 2 composed.
[[nodiscard]] ml::Matrix compute_outdoor_rsca(
    const ml::Matrix& outdoor_traffic, const ml::Matrix& indoor_traffic);

}  // namespace icn::core
