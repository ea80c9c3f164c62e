// Performance microbenches (google-benchmark) for the streaming subsystem:
// ingest throughput vs shard count, checkpointed ingest (fsync per window),
// supervised multi-feed ingest (clean and fault-injected), and snapshot
// mmap load vs regenerating the same tensor from the scenario. Emits
// BENCH_perf_stream.json via bench/report.h.
#include <benchmark/benchmark.h>

#include "report.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "fault/disk.h"
#include "fault/feed.h"
#include "fault/plan.h"
#include "probe/probe.h"
#include "store/snapshot.h"
#include "stream/ingest.h"
#include "stream/supervise.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace icn;

constexpr std::size_t kAntennas = 64;
constexpr std::size_t kServices = 73;
constexpr std::int64_t kHours = 48;

std::vector<std::uint32_t> antenna_ids() {
  std::vector<std::uint32_t> ids(kAntennas);
  for (std::size_t i = 0; i < kAntennas; ++i) {
    ids[i] = static_cast<std::uint32_t>(i);
  }
  return ids;
}

/// One synthetic batch per hour, ~records_per_hour sessions each.
std::vector<std::vector<probe::ServiceSession>> hourly_batches(
    std::size_t records_per_hour, std::uint64_t seed = 7) {
  icn::util::Rng rng(seed);
  std::vector<std::vector<probe::ServiceSession>> batches(
      static_cast<std::size_t>(kHours));
  for (auto& batch : batches) {
    batch.resize(records_per_hour);
  }
  for (std::int64_t h = 0; h < kHours; ++h) {
    for (auto& s : batches[static_cast<std::size_t>(h)]) {
      s.antenna_id = static_cast<std::uint32_t>(rng.uniform_index(kAntennas));
      s.service = rng.uniform_index(kServices);
      s.hour = h;
      s.down_bytes = rng.uniform(1.0e3, 8.0e6);
      s.up_bytes = rng.uniform(1.0e2, 1.0e6);
    }
  }
  return batches;
}

stream::IngestParams ingest_params(std::size_t shards) {
  stream::IngestParams params;
  params.antenna_ids = antenna_ids();
  params.num_services = kServices;
  params.num_hours = kHours;
  params.num_shards = shards;
  return params;
}

void BM_StreamIngestShards(benchmark::State& state) {
  // Ingest throughput (records/sec) at the given shard count; the output is
  // bit-identical at every point on this curve.
  static const auto batches = hourly_batches(4096);
  const auto shards = static_cast<std::size_t>(state.range(0));
  std::int64_t records = 0;
  for (auto _ : state) {
    stream::StreamIngestor ingest(ingest_params(shards));
    for (const auto& batch : batches) {
      ingest.push(batch);
      records += static_cast<std::int64_t>(batch.size());
    }
    ingest.finish();
    benchmark::DoNotOptimize(ingest.traffic_matrix());
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_StreamIngestShards)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_StreamIngestCheckpointed(benchmark::State& state) {
  // Same stream with a durable checkpoint: every closed window is appended
  // and fsync'd. The gap to BM_StreamIngestShards/4 is the price of
  // crash-safety.
  static const auto batches = hourly_batches(4096);
  const std::string path = "bench_stream_ckpt.snap";
  std::int64_t records = 0;
  for (auto _ : state) {
    auto writer = stream::begin_checkpoint(path, ingest_params(4));
    stream::StreamIngestor ingest(ingest_params(4), &writer);
    for (const auto& batch : batches) {
      ingest.push(batch);
      records += static_cast<std::int64_t>(batch.size());
    }
    ingest.finish();
    writer.close();
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_StreamIngestCheckpointed)->Unit(benchmark::kMillisecond);

void BM_IngestFaultyVfs(benchmark::State& state) {
  // Checkpointed ingest with every byte routed through the FaultyVfs shim
  // under a seeded short-write plan (short writes are retried, not errors).
  // The gap to BM_StreamIngestCheckpointed is the chaos-harness overhead:
  // per-op bookkeeping, ledger appends, and the extra write() round trips.
  static const auto batches = hourly_batches(4096);
  const std::string path = "bench_stream_faulty.snap";
  std::int64_t records = 0;
  for (auto _ : state) {
    fault::DiskFaultPlanParams plan;
    plan.seed = 42;
    plan.short_write_rate = 0.10;
    fault::FaultyVfs vfs{fault::DiskFaultPlan(plan)};
    auto writer = stream::begin_checkpoint(path, ingest_params(4), &vfs);
    stream::StreamIngestor ingest(ingest_params(4), &writer);
    for (const auto& batch : batches) {
      ingest.push(batch);
      records += static_cast<std::int64_t>(batch.size());
    }
    ingest.finish();
    writer.close();
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_IngestFaultyVfs)->Unit(benchmark::kMillisecond);

constexpr std::size_t kFeeds = 4;

/// Feed p's script: ~records_per_hour sessions an hour over its own
/// antennas p * kAntennas ... p * kAntennas + kAntennas - 1, so every record
/// lands on an antenna the feed tracks.
std::vector<std::vector<stream::FeedBatch>> feed_scripts(
    std::size_t records_per_hour) {
  std::vector<std::vector<stream::FeedBatch>> scripts;
  for (std::size_t p = 0; p < kFeeds; ++p) {
    std::vector<probe::ServiceSession> sessions;
    for (const auto& batch : hourly_batches(records_per_hour, 7 + p)) {
      sessions.insert(sessions.end(), batch.begin(), batch.end());
    }
    for (auto& s : sessions) {
      s.antenna_id += static_cast<std::uint32_t>(p * kAntennas);
    }
    scripts.push_back(stream::hourly_script(sessions, kHours));
  }
  return scripts;
}

/// The tracked antennas of feed p (see feed_scripts).
std::vector<std::uint32_t> feed_antennas(std::size_t p) {
  std::vector<std::uint32_t> ids = antenna_ids();
  for (auto& id : ids) id += static_cast<std::uint32_t>(p * kAntennas);
  return ids;
}

/// Records the supervisor accepted over all feeds. An accepted record on an
/// antenna its feed does not track is dropped by the ingestor, so it would
/// be credited without being ingested: that fails the bench.
std::int64_t accepted_records(benchmark::State& state,
                              const stream::FeedSupervisor& supervisor) {
  std::int64_t records = 0;
  for (std::size_t p = 0; p < kFeeds; ++p) {
    const auto stats = supervisor.stats(p);
    if (stats.untracked_dropped != 0) {
      state.SkipWithError("a feed carried records of untracked antennas");
    }
    records += static_cast<std::int64_t>(stats.records_accepted);
  }
  return records;
}

void BM_SupervisedIngest(benchmark::State& state) {
  // Four clean feeds under full supervision (dedup set, validation,
  // coverage tracking, virtual clock). The gap to BM_StreamIngestShards is
  // the supervision overhead on the healthy path.
  static const auto scripts = feed_scripts(1024);
  std::int64_t records = 0;
  for (auto _ : state) {
    std::vector<stream::VectorFeed> sources;
    std::vector<stream::FeedSpec> specs;
    sources.reserve(kFeeds);  // specs point into sources: no reallocation
    for (std::size_t p = 0; p < kFeeds; ++p) {
      sources.emplace_back(scripts[p]);
      stream::FeedSpec spec;
      spec.name = "p" + std::to_string(p);
      spec.antenna_ids = feed_antennas(p);
      spec.source = &sources[p];
      specs.push_back(std::move(spec));
    }
    stream::SupervisorParams params;
    params.num_services = kServices;
    params.num_hours = kHours;
    params.num_shards = 2;
    stream::FeedSupervisor supervisor(std::move(params), std::move(specs));
    supervisor.run();
    records += accepted_records(state, supervisor);
    benchmark::DoNotOptimize(supervisor.merge());
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_SupervisedIngest)->Unit(benchmark::kMillisecond);

void BM_SupervisedIngestFaulty(benchmark::State& state) {
  // The same four feeds wrapped in a seeded FaultPlan (retries, duplicates,
  // truncated redeliveries, skew). The gap to BM_SupervisedIngest is the
  // cost of absorbing the faults.
  static const auto scripts = feed_scripts(1024);
  fault::FaultPlanParams fault_params;
  fault_params.seed = 11;
  fault_params.num_probes = kFeeds;
  fault_params.num_hours = kHours;
  fault_params.transient_rate = 0.10;
  fault_params.duplicate_rate = 0.15;
  fault_params.reorder_rate = 0.15;
  fault_params.skew_rate = 0.10;
  fault_params.truncate_rate = 0.10;
  static const fault::FaultPlan plan(fault_params);
  std::int64_t records = 0;
  for (auto _ : state) {
    fault::FaultLedger ledger;
    std::vector<std::unique_ptr<fault::FaultyFeed>> sources;
    std::vector<stream::FeedSpec> specs;
    for (std::size_t p = 0; p < kFeeds; ++p) {
      sources.push_back(std::make_unique<fault::FaultyFeed>(
          p, scripts[p], &plan, &ledger));
      stream::FeedSpec spec;
      spec.name = "p" + std::to_string(p);
      spec.antenna_ids = feed_antennas(p);
      spec.source = sources.back().get();
      specs.push_back(std::move(spec));
    }
    stream::SupervisorParams params;
    params.num_services = kServices;
    params.num_hours = kHours;
    params.num_shards = 2;
    params.allowed_lateness = 12;
    params.corrupt_strikes = 1000;  // Truncations are redelivered intact.
    stream::FeedSupervisor supervisor(std::move(params), std::move(specs));
    supervisor.run();
    // Credit only the records the supervisor absorbed: duplicates, late
    // records and rejects are work, not throughput.
    records += accepted_records(state, supervisor);
    benchmark::DoNotOptimize(supervisor.merge());
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_SupervisedIngestFaulty)->Unit(benchmark::kMillisecond);

void BM_SnapshotLoad(benchmark::State& state) {
  // mmap + CRC validation + materializing the T matrix from a snapshot.
  core::ScenarioParams params;
  params.scale = 0.05;
  params.outdoor_ratio = 0.0;
  static const core::Scenario scenario = core::Scenario::build(params);
  const std::string path = "bench_snapshot_load.snap";
  {
    store::SnapshotWriter writer(path);
    writer.append_matrix(scenario.demand().traffic_matrix());
    writer.close();
  }
  for (auto _ : state) {
    const store::MappedSnapshot snapshot(path);
    benchmark::DoNotOptimize(snapshot.matrix()->to_matrix());
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotLoad)->Unit(benchmark::kMicrosecond);

void BM_SnapshotRegenerate(benchmark::State& state) {
  // The alternative to loading the snapshot: re-synthesizing the scenario
  // from its seed. The ratio to BM_SnapshotLoad is what the store buys.
  core::ScenarioParams params;
  params.scale = 0.05;
  params.outdoor_ratio = 0.0;
  for (auto _ : state) {
    const core::Scenario scenario = core::Scenario::build(params);
    benchmark::DoNotOptimize(scenario.demand().traffic_matrix());
  }
}
BENCHMARK(BM_SnapshotRegenerate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Smoke preset: skip the fsync-heavy clean checkpoint bench and the
  // scenario regeneration; the remaining benches cover ingest, the
  // faulty-vfs checkpoint path, supervision (clean and faulty), and the
  // snapshot load path.
  return icn::bench::trajectory_main(
      "perf_stream", "-(Checkpointed|Regenerate)", argc, argv);
}
