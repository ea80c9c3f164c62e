// Workload `temporal`: the nine Fig 10 per-cluster total heatmaps and the
// nine Fig 11 per-service panels, default HeatmapParams (<= 400 antennas per
// cluster, 04-24 Jan), one caller. Labels are the scenario's archetype ground
// truth, so no clustering runs: traffic::TemporalModel series generation does
// the work and ml does nothing. This is the single largest cost of the
// paper's figure set.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/scenario.h"
#include "core/temporal_analysis.h"
#include "traffic/archetypes.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace icn;

constexpr int kClusters = 9;
constexpr int kGroupLabel = 50;
/// Antennas sampled for the standalone series timings of a traced run.
constexpr std::size_t kSeriesSamples = 16;

/// The Fig 11 panels: one service shown over one cluster group.
struct Panel {
  const char* service;
  traffic::ClusterGroup group;
};
constexpr Panel kPanels[] = {
    {"Spotify", traffic::ClusterGroup::kOrange},
    {"Twitter", traffic::ClusterGroup::kOrange},
    {"Transportation Websites", traffic::ClusterGroup::kOrange},
    {"Netflix", traffic::ClusterGroup::kGreen},
    {"Waze", traffic::ClusterGroup::kGreen},
    {"Snapchat", traffic::ClusterGroup::kGreen},
    {"Microsoft Teams", traffic::ClusterGroup::kRed},
    {"Netflix", traffic::ClusterGroup::kRed},
    {"Waze", traffic::ClusterGroup::kRed},
};

/// Relabels a group's clusters to kGroupLabel, as Fig 11 pools them (the
/// green group leaves out the mixed cluster 5).
std::vector<int> group_labels(const std::vector<int>& labels,
                              traffic::ClusterGroup group) {
  std::vector<int> out = labels;
  for (auto& l : out) {
    if (traffic::archetype_group(l) != group) continue;
    if (group == traffic::ClusterGroup::kGreen && l == 5) continue;
    l = kGroupLabel;
  }
  return out;
}

bool normalized(const core::TemporalHeatmap& map) {
  const auto [lo, hi] = std::minmax_element(map.values.begin(),
                                            map.values.end());
  return !map.values.empty() && *lo >= 0.0 && *hi == 1.0;
}

}  // namespace

/// Standalone TemporalModel series timings on sampled antennas.
void report_series_timings(const core::Scenario& scenario, std::uint64_t seed,
                           Report& report) {
  const auto& temporal = scenario.temporal();
  util::Rng rng(util::derive_seed(seed, 0x7e5));
  std::vector<double> total_ms;
  std::vector<double> service_us;
  for (std::size_t i = 0; i < kSeriesSamples; ++i) {
    const std::size_t antenna = rng.uniform_index(scenario.num_antennas());
    const std::size_t service = rng.uniform_index(scenario.num_services());
    double t0 = now_s();
    {
      const trace::Span span("traffic.total_series");
      (void)temporal.hourly_total_series(antenna);
    }
    total_ms.push_back(1e3 * (now_s() - t0));
    t0 = now_s();
    {
      const trace::Span span("traffic.service_series");
      (void)temporal.hourly_service_series(antenna, service);
    }
    service_us.push_back(1e6 * (now_s() - t0));
  }
  report.set_layer("traffic.total_series_ms", median(total_ms));
  report.set_layer("traffic.service_series_us", median(service_us));
}

void run_temporal(const Options& options, Report& report) {
  core::ScenarioParams params;
  params.seed = options.seed;
  params.scale = 1.0;

  std::optional<core::Scenario> scenario;
  const auto setup_times =
      time_setups([&] { scenario.reset(); },
                  [&] {
                    const trace::Span span("traffic.scenario_build");
                    scenario.emplace(core::Scenario::build(params));
                  });
  const auto& labels = scenario->demand().archetype_labels();
  const auto& temporal = scenario->temporal();
  std::vector<std::vector<int>> panel_labels;
  std::vector<std::size_t> panel_service;
  for (const auto& panel : kPanels) {
    panel_labels.push_back(group_labels(labels, panel.group));
    const auto service = scenario->catalog().index_of(panel.service);
    report.check(service.has_value(),
                 std::string("Fig 11 service in catalogue: ") + panel.service);
    if (!service) return;
    panel_service.push_back(*service);
  }

  std::vector<core::TemporalHeatmap> maps;
  std::uint64_t first_digest = 0;
  std::uint64_t failed = 0;
  const auto times = repeat_for(
      options.seconds, 1,
      [&](std::size_t) {
        const trace::Span rep("temporal.rep");
        maps.clear();
        for (int c = 0; c < kClusters; ++c) {
          const trace::Span span("core.heatmap_total");
          maps.push_back(core::cluster_total_heatmap(temporal, labels, c));
        }
        for (std::size_t p = 0; p < panel_labels.size(); ++p) {
          const trace::Span span("core.heatmap_service");
          maps.push_back(core::cluster_service_heatmap(
              temporal, panel_labels[p], kGroupLabel, panel_service[p]));
        }
      },
      [&](std::size_t rep) {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        std::uint64_t bad = 0;
        for (const auto& map : maps) {
          h = digest_of(map.values, h);
          bad += normalized(map) ? 0 : 1;
        }
        if (rep == 0) first_digest = h;
        bad += h == first_digest ? 0 : 1;
        failed += bad;
      });
  report.count(times.size() * maps.size(), failed);
  report.print("temporal_s", median(times), "s");
  report.print("heatmaps_per_rep", static_cast<double>(maps.size()), "count");
  report.check(failed == 0,
               "every heatmap: max cell 1, every cell in [0, 1]; digest "
               "identical across repetitions");
  check_cross_run_digest(options, report, first_digest);
  report_batch(report, setup_times, times);
  if (!options.trace) return;

  const auto records = trace::records();
  report.set_layer("traffic.scenario_build_s",
                   layer_seconds(records, "setup", "traffic.scenario_build"));
  report.set_layer("core.heatmap_total_s",
                   layer_seconds(records, "temporal.rep", "core.heatmap_total"));
  report.set_layer(
      "core.heatmap_service_s",
      layer_seconds(records, "temporal.rep", "core.heatmap_service"));
  report_series_timings(*scenario, options.seed, report);
}

}  // namespace perfbench
