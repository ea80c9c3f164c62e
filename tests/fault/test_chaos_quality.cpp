// Chaos suite for the record-level fault classes: field fuzzing under the
// quality layer, correlated site outages, and mid-study kill/restart.
// Asserts the PR's headline guarantees:
//  * equal-seed sweeps reproduce the FaultLedger AND the QuarantineLedger
//    verbatim, along with the merged tensors and quarantine counts;
//  * a correlated outage appears as ONE kSiteOutage event and as identical
//    coverage gaps for every probe in the planned mask;
//  * killing the supervisor mid-study and resuming from the durable
//    checkpoints converges bit-exact with an uninterrupted run (study,
//    quarantine ledger, and checkpoint file bytes);
//  * the analysis of a field-fuzzed study is bit-identical to analyze_traffic
//    over the surviving records (fuzz replayed + validated by hand).
// Registered under the `chaos` ctest label (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "fault/feed.h"
#include "fault/plan.h"
#include "fault/restart.h"
#include "quality/validate.h"
#include "stream/ingest.h"
#include "stream/supervise.h"
#include "util/rng.h"

namespace icn::fault {
namespace {

constexpr std::size_t kProbes = 4;
constexpr std::size_t kAntennasPerProbe = 3;
constexpr std::size_t kServices = 6;
constexpr std::int64_t kHours = 48;

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "icn_chaosq_" +
              std::to_string(::getpid()) + "_" + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::uint32_t> probe_ids(std::size_t probe) {
  std::vector<std::uint32_t> ids;
  for (std::size_t a = 0; a < kAntennasPerProbe; ++a) {
    ids.push_back(static_cast<std::uint32_t>(100 * probe + a));
  }
  return ids;
}

std::vector<probe::ServiceSession> probe_traffic(std::size_t probe,
                                                 std::uint64_t seed) {
  icn::util::Rng rng(icn::util::derive_seed(seed, probe));
  const auto ids = probe_ids(probe);
  std::vector<probe::ServiceSession> out;
  for (std::int64_t h = 0; h < kHours; ++h) {
    for (const std::uint32_t id : ids) {
      const std::size_t n = 1 + rng.uniform_index(3);
      for (std::size_t i = 0; i < n; ++i) {
        probe::ServiceSession s;
        s.antenna_id = id;
        s.service = rng.uniform_index(kServices);
        s.hour = h;
        s.down_bytes = rng.uniform(1.0e3, 4.0e6);
        s.up_bytes = rng.uniform(1.0e2, 4.0e5);
        out.push_back(s);
      }
    }
  }
  return out;
}

stream::SupervisorParams supervisor_params() {
  stream::SupervisorParams params;
  params.num_services = kServices;
  params.num_hours = kHours;
  params.num_shards = 2;
  params.allowed_lateness = 12;
  params.backoff.initial_ticks = 1;
  params.backoff.max_ticks = 4;
  params.backoff.max_retries = 6;
  params.stall_timeout_ticks = 4;
  params.corrupt_strikes = 1000;
  // Quality engaged: the supervisor overwrites roster/shape per feed.
  params.quality = quality::ValidatorParams{};
  return params;
}

/// The full record-level sweep: classic probe faults plus field fuzz and
/// correlated site outages.
FaultPlanParams quality_sweep_params(std::uint64_t seed) {
  FaultPlanParams params;
  params.seed = seed;
  params.num_probes = kProbes;
  params.num_hours = kHours;
  params.dropout_rate = 0.04;
  params.dropout_max_hours = 3;
  params.transient_rate = 0.08;
  params.transient_max_failures = 2;  // < max_retries: never quarantines
  params.duplicate_rate = 0.10;
  params.reorder_rate = 0.15;
  params.skew_rate = 0.08;
  params.skew_max_delay = 2;
  params.truncate_rate = 0.08;
  params.field_fuzz_rate = 0.25;
  params.field_fuzz_max_records = 2;
  params.outage_rate = 0.05;
  params.outage_max_hours = 3;
  params.outage_min_probes = 2;
  return params;
}

struct QualityChaosRun {
  FaultLedger faults;
  quality::QuarantineLedger quarantine;
  std::vector<stream::SupervisorEvent> events;
  stream::MergedStudy study;
  std::vector<std::vector<std::uint8_t>> covered;  // per probe
};

QualityChaosRun run_quality_chaos(const FaultPlanParams& plan_params,
                                  std::uint64_t traffic_seed) {
  const FaultPlan plan(plan_params);
  FaultLedger ledger;
  std::vector<std::unique_ptr<FaultyFeed>> feeds;
  std::vector<stream::FeedSpec> specs;
  for (std::size_t p = 0; p < plan_params.num_probes; ++p) {
    const auto script =
        stream::hourly_script(probe_traffic(p, traffic_seed), kHours);
    feeds.push_back(std::make_unique<FaultyFeed>(p, script, &plan, &ledger));
    specs.push_back({"probe-" + std::to_string(p), probe_ids(p),
                     feeds.back().get(), ""});
  }
  stream::FeedSupervisor supervisor(supervisor_params(), std::move(specs));
  supervisor.run();

  QualityChaosRun run;
  run.faults = std::move(ledger);
  run.quarantine = supervisor.quarantine_ledger();
  run.events = supervisor.events();
  run.study = supervisor.merge();
  for (std::size_t p = 0; p < plan_params.num_probes; ++p) {
    const auto covered = supervisor.covered(p);
    run.covered.emplace_back(covered.begin(), covered.end());
  }
  return run;
}

TEST(ChaosQualityTest, EqualSeedsReproduceBothLedgersVerbatim) {
  for (const std::uint64_t seed : {11ull, 23ull}) {
    const auto params = quality_sweep_params(seed);
    const QualityChaosRun a = run_quality_chaos(params, seed);
    const QualityChaosRun b = run_quality_chaos(params, seed);
    EXPECT_EQ(a.faults, b.faults) << "seed " << seed;
    EXPECT_EQ(a.quarantine, b.quarantine) << "seed " << seed;
    EXPECT_EQ(a.events, b.events) << "seed " << seed;
    EXPECT_EQ(a.covered, b.covered) << "seed " << seed;
    EXPECT_EQ(a.study.coverage, b.study.coverage) << "seed " << seed;
    EXPECT_EQ(a.study.quarantine, b.study.quarantine) << "seed " << seed;
    ASSERT_EQ(a.study.traffic.data().size(), b.study.traffic.data().size());
    for (std::size_t i = 0; i < a.study.traffic.data().size(); ++i) {
      ASSERT_EQ(a.study.traffic.data()[i], b.study.traffic.data()[i])
          << "seed " << seed << " slot " << i;
    }
    // The sweep must actually exercise the new classes, or it is vacuous.
    std::set<FaultKind> kinds;
    for (const auto& event : a.faults) kinds.insert(event.kind);
    EXPECT_TRUE(kinds.contains(FaultKind::kFieldFuzz)) << "seed " << seed;
    EXPECT_TRUE(kinds.contains(FaultKind::kSiteOutage)) << "seed " << seed;
    EXPECT_FALSE(a.quarantine.entries().empty()) << "seed " << seed;
  }
}

TEST(ChaosQualityTest, CorrelatedOutageIsOneEventAndSharedGaps) {
  FaultPlanParams params;
  params.seed = 77;
  params.num_probes = kProbes;
  params.num_hours = kHours;
  params.outage_rate = 0.10;
  params.outage_max_hours = 3;
  params.outage_min_probes = 2;
  const FaultPlan plan(params);
  ASSERT_FALSE(plan.outages().empty());

  // Plan invariants: windows are disjoint, masks are >= min_probes wide,
  // and dropouts (none here) can never overlap an outage.
  for (std::size_t i = 0; i + 1 < plan.outages().size(); ++i) {
    EXPECT_GE(plan.outages()[i + 1].hour,
              plan.outages()[i].hour + plan.outages()[i].len);
  }
  const QualityChaosRun run = run_quality_chaos(params, 77);

  // Exactly one kSiteOutage event per planned outage, carrying the window
  // length and the full probe mask, logged by the lowest-indexed probe.
  std::vector<FaultEvent> outage_events;
  for (const auto& event : run.faults) {
    if (event.kind == FaultKind::kSiteOutage) outage_events.push_back(event);
  }
  ASSERT_EQ(outage_events.size(), plan.outages().size());
  for (std::size_t i = 0; i < outage_events.size(); ++i) {
    const OutageSpec& outage = plan.outages()[i];
    EXPECT_EQ(outage_events[i].at, outage.hour);
    EXPECT_EQ(outage_events[i].a, outage.len);
    EXPECT_EQ(outage_events[i].b, static_cast<std::int64_t>(outage.probes));
    EXPECT_TRUE(outage.affects(outage_events[i].site));
    for (std::size_t p = 0; p < outage_events[i].site; ++p) {
      EXPECT_FALSE(outage.affects(p)) << "outage " << i;
    }
  }

  // Coverage: an hour is uncovered for a probe exactly when an outage
  // covering that probe spans it — identically across the probe's antennas.
  for (std::size_t p = 0; p < kProbes; ++p) {
    for (std::int64_t h = 0; h < kHours; ++h) {
      const bool down = plan.outage_covering(p, h) != nullptr;
      EXPECT_EQ(run.covered[p][static_cast<std::size_t>(h)] == 0, down)
          << "probe " << p << " hour " << h;
      for (std::size_t r = 0; r < kAntennasPerProbe; ++r) {
        EXPECT_EQ(run.study.coverage.covered(p * kAntennasPerProbe + r, h),
                  !down)
            << "probe " << p << " row " << r << " hour " << h;
      }
    }
  }

  // Equal seeds produce identical degraded-mode CoverageReports.
  const QualityChaosRun again = run_quality_chaos(params, 77);
  const auto report_a = core::build_coverage_report(
      run.study.coverage, run.study.antenna_ids, 0.5);
  const auto report_b = core::build_coverage_report(
      again.study.coverage, again.study.antenna_ids, 0.5);
  EXPECT_TRUE(report_a.degraded);
  EXPECT_EQ(core::to_text(report_a), core::to_text(report_b));
}

TEST(ChaosQualityTest, MidStudyRestartsConvergeBitExact) {
  auto params = quality_sweep_params(31);
  params.restart_count = 2;
  params.restart_min_ticks = 6;
  params.restart_max_ticks = 20;
  const FaultPlan plan(params);

  // Uninterrupted reference run over its own checkpoints.
  std::vector<std::unique_ptr<TempFile>> ref_files;
  stream::MergedStudy ref_study;
  quality::QuarantineLedger ref_quarantine;
  {
    FaultLedger ledger;
    std::vector<std::unique_ptr<FaultyFeed>> feeds;
    std::vector<stream::FeedSpec> specs;
    for (std::size_t p = 0; p < kProbes; ++p) {
      ref_files.push_back(
          std::make_unique<TempFile>("ref_" + std::to_string(p) + ".snap"));
      feeds.push_back(std::make_unique<FaultyFeed>(
          p, stream::hourly_script(probe_traffic(p, 31), kHours), &plan,
          &ledger));
      specs.push_back({"probe-" + std::to_string(p), probe_ids(p),
                       feeds.back().get(), ref_files[p]->path()});
    }
    stream::FeedSupervisor supervisor(supervisor_params(), std::move(specs));
    supervisor.run();
    ref_study = supervisor.merge();
    ref_quarantine = supervisor.quarantine_ledger();
  }

  // The same study killed twice mid-flight and resumed from checkpoints.
  std::vector<std::unique_ptr<TempFile>> files;
  for (std::size_t p = 0; p < kProbes; ++p) {
    files.push_back(
        std::make_unique<TempFile>("restart_" + std::to_string(p) + ".snap"));
  }
  FaultLedger ledger;
  std::vector<std::unique_ptr<FaultyFeed>> feeds;
  const FeedFactory factory = [&](std::size_t) {
    feeds.clear();  // fresh sources replay the stream from the start
    std::vector<stream::FeedSpec> specs;
    for (std::size_t p = 0; p < kProbes; ++p) {
      feeds.push_back(std::make_unique<FaultyFeed>(
          p, stream::hourly_script(probe_traffic(p, 31), kHours), &plan,
          &ledger));
      specs.push_back({"probe-" + std::to_string(p), probe_ids(p),
                       feeds.back().get(), files[p]->path()});
    }
    return specs;
  };
  const RestartResult result = run_supervised_with_restarts(
      plan, supervisor_params(), factory, &ledger);

  // Both kills actually happened and were logged.
  EXPECT_EQ(result.epochs, 3u);
  std::vector<FaultEvent> restarts;
  for (const auto& event : ledger) {
    if (event.kind == FaultKind::kRestart) restarts.push_back(event);
  }
  ASSERT_EQ(restarts.size(), 2u);
  EXPECT_EQ(restarts[0].a, 0);
  EXPECT_EQ(restarts[0].b, plan.restart_tick_budget(0));
  EXPECT_EQ(restarts[1].a, 1);
  EXPECT_EQ(restarts[1].b, plan.restart_tick_budget(1));

  // Convergence: merged study, quarantine ledger, and checkpoint bytes are
  // bit-identical to the uninterrupted run.
  EXPECT_EQ(result.study.antenna_ids, ref_study.antenna_ids);
  EXPECT_EQ(result.study.coverage, ref_study.coverage);
  EXPECT_EQ(result.study.quarantine, ref_study.quarantine);
  ASSERT_EQ(result.study.traffic.data().size(),
            ref_study.traffic.data().size());
  for (std::size_t i = 0; i < ref_study.traffic.data().size(); ++i) {
    ASSERT_EQ(result.study.traffic.data()[i], ref_study.traffic.data()[i])
        << "slot " << i;
  }
  EXPECT_EQ(result.quarantine, ref_quarantine);
  for (std::size_t p = 0; p < kProbes; ++p) {
    EXPECT_EQ(read_file(files[p]->path()), read_file(ref_files[p]->path()))
        << "probe " << p;
  }
}

TEST(ChaosQualityTest, FuzzedAnalysisMatchesSurvivingRecordsBitForBit) {
  FaultPlanParams params;
  params.seed = 99;
  params.num_probes = kProbes;
  params.num_hours = kHours;
  params.field_fuzz_rate = 0.35;
  params.field_fuzz_max_records = 2;
  const FaultPlan plan(params);
  const QualityChaosRun run = run_quality_chaos(params, 99);
  EXPECT_GT(run.study.quarantine.total_rejected() +
                run.study.quarantine.total_repaired(),
            0u);

  // Replay the exact damage on a clean copy of each script, validate every
  // record the way the supervisor does, and feed the survivors to a plain
  // ingest: the merged study must match its totals bit for bit.
  for (std::size_t p = 0; p < kProbes; ++p) {
    quality::ValidatorParams vp;
    vp.antenna_ids = probe_ids(p);
    vp.num_services = kServices;
    vp.num_hours = kHours;
    const quality::RecordValidator validator(vp);

    stream::IngestParams ip;
    ip.antenna_ids = probe_ids(p);
    ip.num_services = kServices;
    ip.num_hours = kHours;
    ip.num_shards = supervisor_params().num_shards;
    stream::StreamIngestor ingest(ip);
    for (auto& batch :
         stream::hourly_script(probe_traffic(p, 99), kHours)) {
      apply_field_fuzz(batch.records, p, batch.hour, plan, nullptr);
      std::vector<probe::ServiceSession> surviving;
      for (auto& record : batch.records) {
        const auto verdict = validator.validate(record, batch.hour);
        if (verdict.action != quality::Action::kRejected) {
          surviving.push_back(record);
        }
      }
      ingest.push(surviving);
    }
    ingest.finish();
    const ml::Matrix expected = ingest.traffic_matrix();
    for (std::size_t r = 0; r < kAntennasPerProbe; ++r) {
      for (std::size_t j = 0; j < kServices; ++j) {
        ASSERT_EQ(run.study.traffic.at(p * kAntennasPerProbe + r, j),
                  expected.at(r, j))
            << "probe " << p << " row " << r << " service " << j;
      }
    }
  }

  // And the analysis back-end, fed those same bits, is deterministic:
  // analyzing the chaos study equals analyzing the hand-built survivors.
  core::PipelineParams analysis_params;
  analysis_params.align_to_archetypes = false;
  analysis_params.surrogate.num_trees = 8;
  analysis_params.clustering.k_min = 2;
  analysis_params.clustering.k_max = 4;
  analysis_params.clustering.chosen_k = 3;
  const auto a = core::analyze_traffic(run.study.traffic, analysis_params);
  const auto b = core::analyze_traffic(run.study.traffic, analysis_params);
  EXPECT_EQ(a.clusters.labels, b.clusters.labels);
  for (std::size_t i = 0; i < a.rsca.data().size(); ++i) {
    ASSERT_EQ(a.rsca.data()[i], b.rsca.data()[i]) << "slot " << i;
  }
}

}  // namespace
}  // namespace icn::fault
