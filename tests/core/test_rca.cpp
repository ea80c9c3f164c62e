#include "core/rca.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace icn::core {
namespace {

/// FNV-1a over the raw bytes of every element of `m`, continuing from `h`.
std::uint64_t fnv1a(const ml::Matrix& m, std::uint64_t h) {
  for (const double v : m.data()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(double); ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  return h;
}

/// Seeded traffic matrix with zero cells and an all-zero service column
/// `dead` (a service with zero network share).
ml::Matrix seeded_traffic(std::size_t rows, std::size_t cols,
                          std::size_t dead, std::uint64_t seed) {
  icn::util::Rng rng(seed);
  ml::Matrix t(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const double v =
          rng.uniform(0.0, 1.0) * std::pow(10.0, rng.uniform(-3.0, 4.0));
      t(i, j) = j == dead || (i + j) % 9 == 0 ? 0.0 : v;
    }
    t(i, (dead + 1) % cols) += 1.0;  // every antenna carried some traffic
  }
  return t;
}

TEST(RcaTest, HandComputedExample) {
  // Two antennas, two services:
  //   T = [30 10]   antenna totals 40, 60; service totals 60, 40; T_tot 100.
  //       [30 30]
  ml::Matrix t(2, 2, {30.0, 10.0, 30.0, 30.0});
  const ml::Matrix rca = compute_rca(t);
  EXPECT_NEAR(rca(0, 0), (30.0 / 40.0) / (60.0 / 100.0), 1e-12);
  EXPECT_NEAR(rca(0, 1), (10.0 / 40.0) / (40.0 / 100.0), 1e-12);
  EXPECT_NEAR(rca(1, 0), (30.0 / 60.0) / (60.0 / 100.0), 1e-12);
  EXPECT_NEAR(rca(1, 1), (30.0 / 60.0) / (40.0 / 100.0), 1e-12);
}

TEST(RcaTest, UniformTrafficIsNeutral) {
  // When every antenna has the same mix, every RCA is exactly 1.
  ml::Matrix t(3, 4);
  for (std::size_t i = 0; i < 3; ++i) {
    const double scale = static_cast<double>(i + 1);
    for (std::size_t j = 0; j < 4; ++j) {
      t(i, j) = scale * static_cast<double>(j + 1);
    }
  }
  const ml::Matrix rca = compute_rca(t);
  for (const double v : rca.data()) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(RcaTest, ScaleInvariantPerAntenna) {
  // Multiplying an antenna's whole row by a constant leaves its RCA... NOT
  // unchanged in general (the denominator shifts), but multiplying the whole
  // matrix by a constant changes nothing.
  icn::util::Rng rng(3);
  ml::Matrix t(5, 6);
  for (auto& v : t.data()) v = rng.uniform(1.0, 10.0);
  ml::Matrix t2 = t;
  for (auto& v : t2.data()) v *= 37.5;
  const ml::Matrix a = compute_rca(t);
  const ml::Matrix b = compute_rca(t2);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-9);
  }
}

TEST(RcaTest, ShareWeightedMeanIsOne) {
  // Identity: sum_j RCA(i,j) * global_share(j) = 1 for every antenna.
  icn::util::Rng rng(5);
  ml::Matrix t(8, 10);
  for (auto& v : t.data()) v = rng.uniform(0.0, 5.0);
  // Global service shares.
  std::vector<double> share(10, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      share[j] += t(i, j);
      total += t(i, j);
    }
  }
  for (auto& s : share) s /= total;
  const ml::Matrix rca = compute_rca(t);
  for (std::size_t i = 0; i < 8; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < 10; ++j) acc += rca(i, j) * share[j];
    EXPECT_NEAR(acc, 1.0, 1e-9);
  }
}

TEST(RcaTest, ZeroGlobalServiceIsNeutral) {
  ml::Matrix t(2, 2, {10.0, 0.0, 20.0, 0.0});
  const ml::Matrix rca = compute_rca(t);
  EXPECT_DOUBLE_EQ(rca(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(rca(1, 1), 1.0);
}

TEST(RcaTest, RejectsDegenerateInput) {
  EXPECT_THROW(compute_rca(ml::Matrix{}), icn::util::PreconditionError);
  ml::Matrix zero_row(2, 2, {1.0, 1.0, 0.0, 0.0});
  EXPECT_THROW(compute_rca(zero_row), icn::util::PreconditionError);
  ml::Matrix negative(1, 2, {1.0, -1.0});
  EXPECT_THROW(compute_rca(negative), icn::util::PreconditionError);

  // One non-finite cell must fail loudly, not yield an all-zero RSCA or a
  // NaN column.
  const ml::Matrix clean(3, 3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0});
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    ml::Matrix t = clean;
    t(1, 2) = bad;
    EXPECT_THROW((void)compute_rca(t), icn::util::PreconditionError) << bad;
    EXPECT_THROW((void)compute_rsca(t), icn::util::PreconditionError) << bad;
    EXPECT_THROW((void)compute_outdoor_rsca(t, clean),
                 icn::util::PreconditionError)
        << "outdoor " << bad;
    EXPECT_THROW((void)compute_outdoor_rsca(clean, t),
                 icn::util::PreconditionError)
        << "indoor " << bad;
    ml::Matrix rca = compute_rca(clean);
    rca(0, 1) = bad;
    EXPECT_THROW((void)rca_to_rsca(rca), icn::util::PreconditionError) << bad;
  }
}

TEST(RscaTest, MapsIntoSymmetricInterval) {
  // RSCA = (RCA-1)/(RCA+1): 0 -> -1, 1 -> 0, inf -> 1.
  ml::Matrix rca(1, 3, {0.0, 1.0, 3.0});
  const ml::Matrix rsca = rca_to_rsca(rca);
  EXPECT_DOUBLE_EQ(rsca(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(rsca(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(rsca(0, 2), 0.5);
}

TEST(RscaTest, IsMonotoneInRca) {
  ml::Matrix rca(1, 4, {0.1, 0.5, 2.0, 10.0});
  const ml::Matrix rsca = rca_to_rsca(rca);
  for (std::size_t j = 1; j < 4; ++j) {
    EXPECT_GT(rsca(0, j), rsca(0, j - 1));
  }
}

TEST(RscaTest, SymmetryProperty) {
  // RSCA(r) == -RSCA(1/r): the whole point of the symmetric transform.
  for (const double r : {0.1, 0.25, 0.5, 2.0, 7.5}) {
    ml::Matrix m(1, 2, {r, 1.0 / r});
    const ml::Matrix rsca = rca_to_rsca(m);
    EXPECT_NEAR(rsca(0, 0), -rsca(0, 1), 1e-12);
  }
}

TEST(RscaTest, BoundsAlwaysHold) {
  icn::util::Rng rng(7);
  ml::Matrix t(20, 15);
  for (auto& v : t.data()) v = rng.uniform(0.0, 100.0);
  const ml::Matrix rsca = compute_rsca(t);
  for (const double v : rsca.data()) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(RscaTest, RscaDigestIsPinned) {
  // Bit-exact pins of every RSCA path: the fused transform, the unfused
  // RCA -> RSCA map and the outdoor transform against an indoor baseline.
  // Widths are not multiples of 4 (so any vector body ends in a tail) and
  // one service carries no traffic at all (the s <= 0 select).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::size_t cols : {std::size_t{1}, std::size_t{3},
                                 std::size_t{7}, std::size_t{13},
                                 std::size_t{73}}) {
    const ml::Matrix indoor = seeded_traffic(37, cols, cols / 2, 2023 + cols);
    const ml::Matrix outdoor = seeded_traffic(11, cols, cols, 4049 + cols);
    h = fnv1a(compute_rsca(indoor), h);
    h = fnv1a(rca_to_rsca(compute_rca(indoor)), h);
    h = fnv1a(compute_outdoor_rsca(outdoor, indoor), h);
  }
  EXPECT_EQ(h, 0x893fcc0fd5b11e95ULL);
}

TEST(RscaTest, RejectsNegativeRca) {
  ml::Matrix rca(1, 1, {-0.5});
  EXPECT_THROW(rca_to_rsca(rca), icn::util::PreconditionError);
}

/// Property sweep over random matrix shapes: the RCA/RSCA invariants must
/// hold regardless of dimensions.
class RcaPropertyTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(RcaPropertyTest, InvariantsHoldOnRandomMatrices) {
  const auto [n, m] = GetParam();
  icn::util::Rng rng(icn::util::derive_seed(91, n, m));
  ml::Matrix t(n, m);
  // Every ninth cell carries no traffic (never a row's last one, so each
  // antenna keeps a positive total): the fused transform must map it to
  // exactly -1, or to the neutral 0 when its whole service column is empty.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      t(i, j) = (i + j) % 9 == 0 && j + 1 < m ? 0.0 : rng.uniform(0.01, 50.0);
    }
  }
  const ml::Matrix rca = compute_rca(t);
  const ml::Matrix rsca = compute_rsca(t);

  // Global service shares for the weighted-mean identity.
  std::vector<double> share(m, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      share[j] += t(i, j);
      total += t(i, j);
    }
  }
  for (auto& s : share) s /= total;

  for (std::size_t i = 0; i < n; ++i) {
    double weighted = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_GE(rca(i, j), 0.0);
      if (t(i, j) == 0.0) EXPECT_EQ(rsca(i, j), share[j] > 0.0 ? -1.0 : 0.0);
      // RSCA is the Möbius image of RCA: invertible round trip.
      const double back =
          (1.0 + rsca(i, j)) / (1.0 - rsca(i, j));
      EXPECT_NEAR(back, rca(i, j), 1e-9 * std::max(1.0, rca(i, j)));
      EXPECT_GE(rsca(i, j), -1.0);
      EXPECT_LE(rsca(i, j), 1.0);
      weighted += rca(i, j) * share[j];
    }
    EXPECT_NEAR(weighted, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RcaPropertyTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{2, 2},
                      std::pair<std::size_t, std::size_t>{5, 17},
                      std::pair<std::size_t, std::size_t>{40, 3},
                      std::pair<std::size_t, std::size_t>{30, 73},
                      std::pair<std::size_t, std::size_t>{1, 10},
                      std::pair<std::size_t, std::size_t>{9, 1},
                      std::pair<std::size_t, std::size_t>{9, 31},
                      std::pair<std::size_t, std::size_t>{9, 67}));

TEST(OutdoorRcaTest, UsesIndoorBaseline) {
  // Indoor baseline: service shares 0.6 / 0.4.
  ml::Matrix indoor(2, 2, {30.0, 10.0, 30.0, 30.0});
  // One outdoor antenna with mix 0.5 / 0.5.
  ml::Matrix outdoor(1, 2, {50.0, 50.0});
  const ml::Matrix rca = compute_outdoor_rca(outdoor, indoor);
  EXPECT_NEAR(rca(0, 0), 0.5 / 0.6, 1e-12);
  EXPECT_NEAR(rca(0, 1), 0.5 / 0.4, 1e-12);
}

TEST(OutdoorRcaTest, IndoorMixYieldsNeutralOutdoor) {
  // An outdoor antenna with exactly the aggregate indoor mix gets RCA = 1.
  ml::Matrix indoor(2, 3, {10.0, 20.0, 30.0, 30.0, 20.0, 10.0});
  ml::Matrix outdoor(1, 3, {40.0, 40.0, 40.0});
  const ml::Matrix rca = compute_outdoor_rca(outdoor, indoor);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(rca(0, j), 1.0, 1e-12);
}

TEST(OutdoorRcaTest, DimensionMismatchThrows) {
  ml::Matrix indoor(1, 3, {1.0, 2.0, 3.0});
  ml::Matrix outdoor(1, 2, {1.0, 2.0});
  EXPECT_THROW(compute_outdoor_rca(outdoor, indoor),
               icn::util::PreconditionError);
}

TEST(OutdoorRcaTest, RscaComposition) {
  ml::Matrix indoor(2, 2, {30.0, 10.0, 30.0, 30.0});
  ml::Matrix outdoor(1, 2, {50.0, 50.0});
  const ml::Matrix direct = compute_outdoor_rsca(outdoor, indoor);
  const ml::Matrix composed =
      rca_to_rsca(compute_outdoor_rca(outdoor, indoor));
  for (std::size_t i = 0; i < direct.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(direct.data()[i], composed.data()[i]);
  }
}

}  // namespace
}  // namespace icn::core
