// Workload `plant`: the measurement plant end to end at scale 0.05 (239
// antennas) x 168 hourly batches, one caller. Flow records are synthesised
// in set-up; the timed operation runs the passive probe hour by hour, feeds
// four disjoint probe scripts through the FeedSupervisor (quality validator
// on, one checkpoint per probe with an fsync per window), merges and seals
// the study, analyses it from the snapshot and publishes it to a registry.
// probe, quality/stream and the store write path do the work; the analysis
// at N=239 is small.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "core/scenario.h"
#include "counting_vfs.h"
#include "probe/aggregate.h"
#include "probe/dpi.h"
#include "probe/gtp.h"
#include "probe/probe.h"
#include "quality/validate.h"
#include "serve/registry.h"
#include "stream/feed.h"
#include "stream/supervise.h"
#include "trace.h"
#include "traffic/flows.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace icn;

constexpr double kScale = 0.05;
constexpr std::int64_t kHours = 168;
constexpr std::size_t kProbes = 4;
constexpr std::size_t kSynthThreads = 4;  // <= nproc of the reference host.

/// Set-up output: the study and its flow records, hour-major.
struct PlantInput {
  std::optional<core::Scenario> scenario;
  std::optional<traffic::FlowGenerator> generator;
  std::vector<traffic::FlowRecord> flows;
  std::vector<std::size_t> hour_begin;  ///< kHours + 1 offsets into flows.
};

std::unique_ptr<PlantInput> synthesize(std::uint64_t seed) {
  auto input = std::make_unique<PlantInput>();
  core::ScenarioParams params;
  params.seed = seed;
  params.scale = kScale;
  params.outdoor_ratio = 0.0;
  {
    const trace::Span span("traffic.scenario_build");
    input->scenario.emplace(core::Scenario::build(params));
  }
  input->generator.emplace(input->scenario->temporal(),
                           util::derive_seed(seed, 0xF10F));
  const trace::Span span("traffic.flow_synth");
  const std::size_t n = input->scenario->num_antennas();
  std::vector<std::vector<traffic::FlowRecord>> per_antenna(n);
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kSynthThreads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t a = t; a < n; a += kSynthThreads) {
          per_antenna[a] = input->generator->flows_for_antenna(a, 0, kHours);
        }
      });
    }
  }
  // Hour-major order (antenna, then service, within an hour): the order a
  // probe sees one hour's traffic in.
  std::vector<std::size_t> count(kHours + 1, 0);
  for (const auto& flows : per_antenna) {
    for (const auto& f : flows) ++count[static_cast<std::size_t>(f.start_hour) + 1];
  }
  input->hour_begin.assign(kHours + 1, 0);
  for (std::int64_t h = 0; h < kHours; ++h) {
    input->hour_begin[h + 1] = input->hour_begin[h] + count[h + 1];
  }
  input->flows.resize(input->hour_begin.back());
  std::vector<std::size_t> cursor(input->hour_begin.begin(),
                                  input->hour_begin.end() - 1);
  for (auto& flows : per_antenna) {
    for (auto& f : flows) {
      input->flows[cursor[static_cast<std::size_t>(f.start_hour)]++] =
          std::move(f);
    }
    std::vector<traffic::FlowRecord>().swap(flows);
  }
  return input;
}

/// What one repetition produced, for the checks and per-layer metrics.
struct RepOutput {
  std::vector<std::vector<probe::ServiceSession>> sessions;  ///< Per probe.
  std::size_t sessions_out = 0;
  std::size_t unknown_location = 0;
  std::size_t unknown_service = 0;
  stream::FeedStats totals;  ///< Summed over the feeds.
  std::size_t quarantined_feeds = 0;
  std::int64_t ticks = 0;
  stream::MergedStudy study;
  std::uint64_t generation = 0;
  double publish_s = 0.0;
  StoreCounters store;
};

void add_stats(stream::FeedStats& sum, const stream::FeedStats& s) {
  sum.records_accepted += s.records_accepted;
  sum.records_rejected += s.records_rejected;
  sum.records_repaired += s.records_repaired;
  sum.duplicate_batches += s.duplicate_batches;
  sum.late_dropped += s.late_dropped;
  sum.untracked_dropped += s.untracked_dropped;
  sum.retries_scheduled += s.retries_scheduled;
  sum.checkpoint_failures += s.checkpoint_failures;
}

/// One plant run; `root` names its span ("plant.rep", or "plant.warmup"
/// for the untimed first pass that pays first-touch costs).
RepOutput run_plant_once(const PlantInput& input, const Options& options,
                         serve::SnapshotRegistry& registry, CountingVfs* vfs,
                         const char* root) {
  const trace::Span rep(root);
  const core::Scenario& scenario = *input.scenario;
  const std::size_t n = scenario.num_antennas();
  RepOutput out;
  if (vfs != nullptr) vfs->reset();

  probe::UliDecoder decoder;
  decoder.register_range(input.generator->ecgi_of(0),
                         static_cast<std::uint32_t>(n));
  probe::DpiClassifier dpi(scenario.catalog());
  probe::PassiveProbe probe(decoder, dpi);
  out.sessions.resize(kProbes);
  for (std::int64_t h = 0; h < kHours; ++h) {
    const std::span<const traffic::FlowRecord> hour(
        input.flows.data() + input.hour_begin[h],
        input.hour_begin[h + 1] - input.hour_begin[h]);
    std::vector<probe::ServiceSession> sessions;
    {
      const trace::Span span("probe.observe");
      sessions = probe.observe_all(hour);
    }
    out.sessions_out += sessions.size();
    for (const auto& s : sessions) {
      out.sessions[s.antenna_id * kProbes / n].push_back(s);
    }
  }
  out.unknown_location = probe.unknown_location();
  out.unknown_service = probe.unknown_service();

  std::vector<std::unique_ptr<stream::VectorFeed>> feeds;
  std::vector<stream::FeedSpec> specs;
  std::vector<std::string> checkpoints;
  for (std::size_t p = 0; p < kProbes; ++p) {
    feeds.push_back(std::make_unique<stream::VectorFeed>(
        stream::hourly_script(out.sessions[p], kHours)));
    stream::FeedSpec spec;
    spec.name = "probe-" + std::to_string(p);
    for (std::size_t a = 0; a < n; ++a) {
      if (a * kProbes / n == p) {
        spec.antenna_ids.push_back(static_cast<std::uint32_t>(a));
      }
    }
    spec.source = feeds.back().get();
    spec.checkpoint_path =
        options.work_dir + "/probe-" + std::to_string(p) + ".snap";
    checkpoints.push_back(spec.checkpoint_path);
    specs.push_back(std::move(spec));
  }
  stream::SupervisorParams params;
  params.num_services = scenario.num_services();
  params.num_hours = kHours;
  params.quality = quality::ValidatorParams{};
  params.vfs = vfs;
  {
    const trace::Span span("stream.supervise");
    stream::FeedSupervisor supervisor(params, std::move(specs));
    supervisor.run();
    out.ticks = supervisor.now();
    for (std::size_t p = 0; p < supervisor.num_feeds(); ++p) {
      const auto stats = supervisor.stats(p);
      add_stats(out.totals, stats);
      out.quarantined_feeds +=
          stats.state == stream::FeedState::kDone ? 0 : 1;
    }
  }
  {
    const trace::Span span("stream.merge");
    out.study = stream::merge_snapshots(checkpoints, vfs);
  }
  const std::string merged = options.work_dir + "/merged.snap";
  {
    const trace::Span span("stream.write_merged");
    stream::write_merged_snapshot(out.study, merged, vfs);
  }
  std::optional<core::SnapshotPipelineResult> result;
  {
    const trace::Span span("core.snapshot_pipeline");
    result.emplace(core::run_pipeline_from_snapshot(merged, {}));
  }
  core::ShapSummary shap;
  const auto& analysis = result->analysis;
  {
    const trace::Span span("core.shap_explain");
    shap = analysis.surrogate->explain(analysis.rsca, analysis.clusters.labels);
  }
  auto analytics = served_analytics(
      analysis.clusters.labels, static_cast<int>(analysis.clusters.chosen_k),
      shap);
  const double t0 = now_s();
  {
    const trace::Span span("serve.publish");
    out.generation = registry.try_publish_file(merged, std::move(analytics));
  }
  out.publish_s = now_s() - t0;
  if (vfs != nullptr) out.store = vfs->counters();
  return out;
}

}  // namespace

void run_plant(const Options& options, Report& report) {
  std::unique_ptr<PlantInput> input;
  const auto setup_times =
      time_setups([&] { input.reset(); },
                  [&] { input = synthesize(options.seed); });
  const std::size_t n = input->scenario->num_antennas();
  const std::size_t flows = input->flows.size();

  CountingVfs counting(store::posix_vfs());
  CountingVfs* vfs = options.trace ? &counting : nullptr;
  serve::SnapshotRegistry registry;
  std::optional<RepOutput> last;
  std::vector<RepOutput> outputs;  // Per-rep counters (sessions dropped).
  ml::Matrix reference;
  std::uint64_t first_digest = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  bool exact = true;
  (void)run_plant_once(*input, options, registry, vfs, "plant.warmup");
  const auto times = repeat_for(
      options.seconds, 1,
      [&](std::size_t) {
        last.emplace(
            run_plant_once(*input, options, registry, vfs, "plant.rep"));
      },
      [&](std::size_t rep) {
        RepOutput& out = *last;
        if (rep == 0) {
          // The probe-side oracle: the same sessions summed directly.
          std::vector<std::uint32_t> ids(n);
          for (std::size_t a = 0; a < n; ++a) {
            ids[a] = static_cast<std::uint32_t>(a);
          }
          probe::HourlyAggregator aggregator(
              ids, input->scenario->num_services(), kHours);
          for (const auto& s : out.sessions) aggregator.add_all(s);
          reference = aggregator.traffic_matrix();
          first_digest = digest_of(out.study.traffic.data());
        }
        const auto& merged = out.study.traffic.data();
        exact = exact && merged.size() == reference.data().size() &&
                std::equal(merged.begin(), merged.end(),
                           reference.data().begin());
        const std::uint64_t unabsorbed =
            out.sessions_out - std::min(out.sessions_out,
                                        out.totals.records_accepted);
        attempted += out.sessions_out + kProbes;
        failed += unabsorbed + out.quarantined_feeds +
                  (out.generation == 0 ? 1 : 0) +
                  (digest_of(merged) == first_digest ? 0 : 1);
        out.sessions.clear();
        out.study.traffic = ml::Matrix();
        outputs.push_back(std::move(out));
      });
  report.count(attempted, failed);
  const RepOutput& out = outputs.back();
  report.print("plant_s", median(times), "s");
  report.print("flows_per_rep", static_cast<double>(flows), "count");
  report.check(exact,
               "merged T matrix bit-identical to probe::HourlyAggregator "
               "over the same sessions");
  report.check(out.totals.records_accepted == out.sessions_out,
               "stream.records_accepted == probe.sessions_out");
  report.check(failed == 0,
               "every repetition: no unabsorbed session, no quarantined "
               "feed, publish live, identical merged digest");
  check_cross_run_digest(options, report, first_digest);
  report_batch(report, setup_times, times);
  if (!options.trace) return;

  const auto records = trace::records();
  const auto rep_median = [&](auto field) {
    std::vector<double> values;
    for (const auto& o : outputs) values.push_back(field(o));
    return median(values);
  };
  report.set_layer("traffic.scenario_build_s",
                   layer_seconds(records, "setup", "traffic.scenario_build"));
  report.set_layer("traffic.flow_synth_s",
                   layer_seconds(records, "setup", "traffic.flow_synth"));
  report.set_layer("traffic.flows", static_cast<double>(flows));
  report_series_timings(*input->scenario, options.seed, report);
  report.set_layer("core.snapshot_pipeline_s",
                   layer_seconds(records, "plant.rep", "core.snapshot_pipeline"));
  report.set_layer("core.shap_explain_s",
                   layer_seconds(records, "plant.rep", "core.shap_explain"));

  report.set_layer("probe.observe_s",
                   layer_seconds(records, "plant.rep", "probe.observe"));
  report.set_layer("probe.flows_in", static_cast<double>(flows));
  report.set_layer("probe.sessions_out", static_cast<double>(out.sessions_out));
  report.set_layer("probe.unknown_location",
                   static_cast<double>(out.unknown_location));
  report.set_layer("probe.unknown_service",
                   static_cast<double>(out.unknown_service));
  report.set_layer("probe.classified_ratio",
                   static_cast<double>(out.sessions_out) /
                       static_cast<double>(std::max<std::size_t>(flows, 1)));

  const auto& t = out.totals;
  report.set_layer("stream.supervise_s",
                   layer_seconds(records, "plant.rep", "stream.supervise"));
  report.set_layer("stream.ticks", static_cast<double>(out.ticks));
  report.set_layer("stream.records_accepted",
                   static_cast<double>(t.records_accepted));
  report.set_layer("stream.records_rejected",
                   static_cast<double>(t.records_rejected));
  report.set_layer("stream.records_repaired",
                   static_cast<double>(t.records_repaired));
  report.set_layer("stream.duplicate_batches",
                   static_cast<double>(t.duplicate_batches));
  report.set_layer("stream.late_dropped", static_cast<double>(t.late_dropped));
  report.set_layer("stream.untracked_dropped",
                   static_cast<double>(t.untracked_dropped));
  report.set_layer("stream.retries", static_cast<double>(t.retries_scheduled));
  report.set_layer("stream.checkpoint_failures",
                   static_cast<double>(t.checkpoint_failures));
  report.set_layer("stream.accepted_ratio",
                   static_cast<double>(t.records_accepted) /
                       static_cast<double>(
                           std::max<std::size_t>(out.sessions_out, 1)));
  report.set_layer("stream.merge_s",
                   layer_seconds(records, "plant.rep", "stream.merge"));
  report.set_layer("stream.write_merged_s",
                   layer_seconds(records, "plant.rep", "stream.write_merged"));

  const auto& s = out.store;
  report.set_layer("store.write_calls", static_cast<double>(s.write_calls));
  report.set_layer("store.bytes_written", static_cast<double>(s.bytes_written));
  report.set_layer("store.write_s",
                   rep_median([](const RepOutput& o) { return o.store.write_s; }));
  report.set_layer("store.fsyncs", static_cast<double>(s.fsyncs));
  report.set_layer("store.fsync_s",
                   rep_median([](const RepOutput& o) { return o.store.fsync_s; }));
  report.set_layer("store.dir_fsyncs", static_cast<double>(s.dir_fsyncs));
  report.set_layer("store.map_s",
                   rep_median([](const RepOutput& o) { return o.store.map_s; }));
  report.set_layer("store.fsyncs_per_window",
                   static_cast<double>(s.fsyncs) /
                       static_cast<double>(kProbes * kHours));

  std::vector<double> publish_ms;
  for (const auto& o : outputs) publish_ms.push_back(1e3 * o.publish_s);
  report.set_layer("serve.publish_ms_median", median(publish_ms));
  report.set_layer("serve.publish_ms_max",
                   *std::max_element(publish_ms.begin(), publish_ms.end()));
  report.set_layer("serve.publishes",
                   static_cast<double>(registry.generation()));
  report.set_layer("serve.degraded_publishes",
                   static_cast<double>(registry.degraded_publishes()));
}

}  // namespace perfbench
