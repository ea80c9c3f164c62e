// The four paper-shape workloads. Each builds its inputs from the seed
// (set-up, timed as setup_s), warms lazy state, runs its operation
// repeatedly for the requested seconds, checks the outputs, and fills the
// report: end-to-end metrics always, per-layer metrics on a traced run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/surrogate.h"
#include "serve/registry.h"

namespace icn::core {
class Scenario;
}

namespace perfbench {

/// Secs 4-5 / Figs 2-9: RSCA -> Ward + k sweep -> alignment -> forest ->
/// SHAP -> outdoor, on the full 4,762-antenna T matrix.
void run_cluster(const Options& options, Report& report);
/// Figs 10-11: nine per-cluster total heatmaps and nine per-service panels.
void run_temporal(const Options& options, Report& report);
/// Measurement plant: probe -> supervised 4-feed ingest with checkpoints ->
/// merge -> seal -> snapshot pipeline -> publish, at scale 0.05 x 168 hours.
void run_plant(const Options& options, Report& report);
/// Query server over a paper-shape snapshot: open loop at 20k req/s, then
/// closed-loop saturation, with a publisher hot-swapping generations.
void run_serve(const Options& options, Report& report);

/// Traced runs: standalone TemporalModel::hourly_total_series and
/// hourly_service_series timings on antennas sampled from `seed`
/// (traffic.total_series_ms, traffic.service_series_us).
void report_series_timings(const icn::core::Scenario& scenario,
                           std::uint64_t seed, Report& report);

/// Publisher-side analytics bundle: labels plus the per-cluster SHAP
/// rankings, as serve::ServedAnalytics stores them.
[[nodiscard]] icn::serve::ServedAnalytics served_analytics(
    std::vector<int> labels, int num_clusters,
    const icn::core::ShapSummary& shap);

/// Cross-run digest check: every run of one build with the same workload and
/// seed, traced or not, must produce the same output digest. Compares with
/// the digest an earlier run left in options.out_dir, else records this one.
void check_cross_run_digest(const Options& options, Report& report,
                            std::uint64_t digest);

}  // namespace perfbench
