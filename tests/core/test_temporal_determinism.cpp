// Determinism of the Fig 10/11 heatmaps across thread counts: the member
// antennas' series are generated on the pool, each into its own row, so a
// 1-lane and a 4-lane pool must give byte-identical heatmaps.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/scenario.h"
#include "core/temporal_analysis.h"
#include "traffic/archetypes.h"
#include "util/parallel.h"

namespace icn::core {
namespace {

using icn::util::ThreadPool;

/// Antenna caps: the default, none, and one small enough to subsample every
/// cluster of this scenario.
const std::size_t kCaps[] = {HeatmapParams{}.max_antennas, 0, 8};

class TemporalDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioParams params;
    params.seed = 29;
    params.scale = 0.04;
    params.outdoor_ratio = 0.0;  // default gamma noise stays on
    scenario_ = std::make_unique<Scenario>(Scenario::build(params));
  }
  static void TearDownTestSuite() { scenario_.reset(); }

  static const std::vector<int>& labels() {
    return scenario_->demand().archetype_labels();
  }

  /// The heatmaps of every cluster under a pool of `lanes` threads.
  template <typename HeatmapFn>
  static std::vector<TemporalHeatmap> with_lanes(std::size_t lanes,
                                                 HeatmapFn&& heatmap) {
    ThreadPool::ScopedOverride pool(lanes);
    std::vector<TemporalHeatmap> maps;
    for (int c = 0; c < static_cast<int>(traffic::kNumArchetypes); ++c) {
      maps.push_back(heatmap(c));
    }
    return maps;
  }

  static void expect_identical(const std::vector<TemporalHeatmap>& a,
                               const std::vector<TemporalHeatmap>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) {
      ASSERT_EQ(a[c].values.size(), b[c].values.size()) << "cluster " << c;
      EXPECT_GT(a[c].peak_mb, 0.0) << "cluster " << c;  // not all-zero
      EXPECT_EQ(std::memcmp(a[c].values.data(), b[c].values.data(),
                            a[c].values.size() * sizeof(double)),
                0)
          << "cluster " << c;
      EXPECT_EQ(a[c].peak_mb, b[c].peak_mb) << "cluster " << c;
    }
  }

  static std::unique_ptr<Scenario> scenario_;
};

std::unique_ptr<Scenario> TemporalDeterminismTest::scenario_;

TEST_F(TemporalDeterminismTest, TotalHeatmapsAreLaneInvariant) {
  for (const std::size_t cap : kCaps) {
    HeatmapParams params;
    params.max_antennas = cap;
    const auto heatmap = [&](int c) {
      return cluster_total_heatmap(scenario_->temporal(), labels(), c,
                                   params);
    };
    SCOPED_TRACE(cap);
    expect_identical(with_lanes(1, heatmap), with_lanes(4, heatmap));
  }
}

TEST_F(TemporalDeterminismTest, ServiceHeatmapsAreLaneInvariant) {
  const std::size_t service = *scenario_->catalog().index_of("Snapchat");
  for (const std::size_t cap : kCaps) {
    HeatmapParams params;
    params.max_antennas = cap;
    const auto heatmap = [&](int c) {
      return cluster_service_heatmap(scenario_->temporal(), labels(), c,
                                     service, params);
    };
    SCOPED_TRACE(cap);
    expect_identical(with_lanes(1, heatmap), with_lanes(4, heatmap));
  }
}

}  // namespace
}  // namespace icn::core
