// Workload `cluster`: the paper's Secs 4-5 chain (Figs 2-9) on the full
// 4,762 x 73 T matrix, one caller. ml does almost all the work (Ward NN-chain,
// the 14-cut validity sweep, the forest and TreeSHAP); probe, stream, store,
// serve and the temporal model are not touched, so a gain claimed for them
// must leave this workload unchanged.
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/clustering.h"
#include "core/outdoor.h"
#include "core/rca.h"
#include "core/scenario.h"
#include "core/surrogate.h"
#include "ml/distance.h"
#include "ml/hungarian.h"
#include "ml/linkage.h"
#include "ml/metrics.h"
#include "trace.h"
#include "util/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace icn;

constexpr int kClusters = 9;  // The paper's k (Fig. 2).
constexpr std::size_t kPaperOutdoorAntennas = 22174;
constexpr double kMinArchetypeAri = 0.99;
/// core.* spans must cover at least this share of each repetition: the
/// rest is benchmark glue between the calls.
constexpr double kMinSpanCoverage = 0.98;
constexpr const char* kCoreSpans[] = {
    "core.rsca",          "core.analyze_clusters", "core.align",
    "core.surrogate_fit", "core.shap_explain",     "core.outdoor"};

struct ChainOutput {
  ml::Matrix rsca;
  core::ClusterAnalysisResult clusters;
  std::vector<int> labels;
  core::ShapSummary shap;
  core::OutdoorComparison outdoor;
};

ChainOutput run_chain(const core::Scenario& scenario) {
  const trace::Span rep("cluster.rep");
  const ml::Matrix& traffic = scenario.demand().traffic_matrix();
  const auto& truth = scenario.demand().archetype_labels();
  ChainOutput out;
  {
    const trace::Span span("core.rsca");
    out.rsca = core::compute_rsca(traffic);
  }
  {
    const trace::Span span("core.analyze_clusters");
    out.clusters = core::analyze_clusters(out.rsca);
  }
  {
    const trace::Span span("core.align");
    out.labels = ml::apply_label_map(
        out.clusters.labels,
        ml::align_labels(out.clusters.labels, truth, kClusters));
  }
  std::optional<core::SurrogateExplainer> surrogate;
  {
    const trace::Span span("core.surrogate_fit");
    surrogate.emplace(out.rsca, out.labels, kClusters);
  }
  {
    const trace::Span span("core.shap_explain");
    out.shap = surrogate->explain(out.rsca, out.labels);
  }
  {
    const trace::Span span("core.outdoor");
    out.outdoor = core::compare_outdoor(scenario, *surrogate, traffic);
  }
  return out;
}

std::uint64_t digest(const ChainOutput& out) {
  std::uint64_t h = digest_of(out.labels);
  for (const auto& merge : out.clusters.dendrogram.merges()) {
    h = fnv1a(&merge.height, sizeof(merge.height), h);
  }
  for (const auto& ranked : out.shap.per_cluster) {
    for (const auto& impact : ranked) {
      h = fnv1a(&impact.service, sizeof(impact.service), h);
      h = fnv1a(&impact.mean_abs_shap, sizeof(impact.mean_abs_shap), h);
    }
  }
  return digest_of(out.outdoor.predicted, h);
}

/// Standalone replays of the ml calls analyze_clusters makes internally, on
/// the same RSCA matrix: Ward, the condensed distances, and silhouette and
/// Dunn over the 14 cuts of the sweep.
void replay_ml(const ChainOutput& out, Report& report) {
  const trace::Span replay("cluster.replay");
  std::vector<std::vector<int>> cuts;
  std::optional<ml::Dendrogram> tree;
  {
    const trace::Span span("ml.ward");
    tree.emplace(ml::agglomerative_cluster(out.rsca, ml::Linkage::kWard));
  }
  bool same_tree = tree->merges().size() ==
                   out.clusters.dendrogram.merges().size();
  for (std::size_t i = 0; same_tree && i < tree->merges().size(); ++i) {
    same_tree = tree->merges()[i].height ==
                    out.clusters.dendrogram.merges()[i].height &&
                tree->merges()[i].left ==
                    out.clusters.dendrogram.merges()[i].left;
  }
  report.check(same_tree, "standalone Ward replay reproduces the merge tree");
  for (const auto& point : out.clusters.sweep) cuts.push_back(tree->cut(point.k));
  std::optional<ml::CondensedDistances> dist;
  {
    const trace::Span span("ml.condensed");
    dist.emplace(out.rsca);
  }
  bool same_sweep = true;
  {
    const trace::Span span("ml.silhouette");
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      same_sweep &= ml::silhouette_score(*dist, cuts[i]) ==
                    out.clusters.sweep[i].silhouette;
    }
  }
  {
    const trace::Span span("ml.dunn");
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      same_sweep &=
          ml::dunn_index(*dist, cuts[i]) == out.clusters.sweep[i].dunn;
    }
  }
  report.check(same_sweep,
               "standalone silhouette/Dunn replays reproduce the k sweep");
}

}  // namespace

void run_cluster(const Options& options, Report& report) {
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
  const auto& truth = scenario->demand().archetype_labels();
  const std::size_t outdoor_count = scenario->topology().outdoor().size();

  std::optional<ChainOutput> last;
  std::uint64_t first_digest = 0;
  std::uint64_t failed = 0;
  const auto times = repeat_for(
      options.seconds, 1,
      [&](std::size_t) { last.emplace(run_chain(*scenario)); },
      [&](std::size_t rep) {
        const std::uint64_t d = digest(*last);
        if (rep == 0) first_digest = d;
        const bool ok =
            d == first_digest &&
            util::adjusted_rand_index(last->labels, truth) >=
                kMinArchetypeAri &&
            last->outdoor.predicted.size() == outdoor_count;
        failed += ok ? 0 : 1;
      });
  report.count(times.size(), failed);

  const double ari = util::adjusted_rand_index(last->labels, truth);
  const std::size_t suggested = core::suggest_k(last->clusters.sweep);
  // The sweep's own steepest-drop pick is reported, not gated: at full
  // scale it lands on the k=6 knee (see perfbench/README.md).
  report.print("chosen_k", static_cast<double>(last->clusters.chosen_k), "k");
  report.print("suggest_k", static_cast<double>(suggested), "k");
  report.print("ari_vs_archetypes", ari, "");
  report.print("outdoor_rows", static_cast<double>(last->outdoor.predicted.size()),
               "count");
  report.print("cluster_s", median(times), "s");
  report.check(failed == 0,
               "every repetition: identical digest, ARI >= 0.99, one "
               "prediction per outdoor antenna");
  report.check(ari >= kMinArchetypeAri, "ARI vs archetypes >= 0.99");
  report.check(last->outdoor.predicted.size() == outdoor_count &&
                   outdoor_count > 0,
               "one outdoor prediction per outdoor antenna");
  if (options.seed == kPaperSeed) {
    report.check(last->clusters.chosen_k == kClusters,
                 "seed 2023: chosen_k == 9");
    report.check(outdoor_count == kPaperOutdoorAntennas,
                 "seed 2023: 22,174 outdoor rows");
  }
  check_cross_run_digest(options, report, first_digest);

  report_batch(report, setup_times, times);
  if (!options.trace) return;

  replay_ml(*last, report);
  const auto records = trace::records();
  report.set_layer("traffic.scenario_build_s",
                   layer_seconds(records, "setup", "traffic.scenario_build"));
  const auto reps = trace::totals_under(records, "cluster.rep", "core.rsca");
  std::vector<double> core_total(reps.size(), 0.0);
  for (const char* name : kCoreSpans) {
    const auto totals = trace::totals_under(records, "cluster.rep", name);
    for (std::size_t i = 0; i < totals.size(); ++i) core_total[i] += totals[i];
    report.set_layer(std::string(name) + "_s", median(totals));
  }
  // Span coverage per repetition: core.* time over the repetition's time.
  std::vector<double> coverage;
  for (const auto& r : records) {
    if (std::string_view(r.name) == "cluster.rep") {
      coverage.push_back(core_total[coverage.size()] / r.seconds());
    }
  }
  const double covered = median(coverage);
  report.set_layer("core.span_coverage", covered);
  report.check(covered >= kMinSpanCoverage && covered <= 1.0,
               "core.* spans cover >= 98% of cluster_s");
  for (const char* name : {"ml.ward", "ml.condensed", "ml.silhouette",
                           "ml.dunn"}) {
    report.set_layer(std::string(name) + "_s",
                     layer_seconds(records, "cluster.replay", name));
  }
}

}  // namespace perfbench
