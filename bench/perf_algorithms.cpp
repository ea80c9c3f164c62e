// Performance microbenches (google-benchmark) for the core algorithms:
// Ward NN-chain scaling, silhouette, the RCA/RSCA transform, random-forest
// training, TreeSHAP per explanation, the paper-shape clustered forest fit
// and TreeSHAP batch, the probe-path aggregation throughput, the per-level
// SIMD kernels (distance, x4 row-batched distance, labeled sums), the tiled
// condensed-distance sweep, CRC32C backends, the Hungarian assignment,
// seasonal batch fitting, and the work-stealing scheduler on a skewed
// workload. Emits BENCH_perf_algorithms.json via bench/report.h.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/forecast.h"
#include "core/rca.h"
#include "core/scenario.h"
#include "ml/distance.h"
#include "ml/forest.h"
#include "ml/hungarian.h"
#include "ml/kernels.h"
#include "ml/linkage.h"
#include "ml/metrics.h"
#include "ml/treeshap.h"
#include "probe/aggregate.h"
#include "probe/dpi.h"
#include "probe/gtp.h"
#include "probe/probe.h"
#include "report.h"
#include "store/crc32c.h"
#include "traffic/flows.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using namespace icn;

ml::Matrix random_features(std::size_t n, std::size_t m,
                           std::uint64_t seed = 42) {
  icn::util::Rng rng(seed);
  ml::Matrix x(n, m);
  for (auto& v : x.data()) {
    v = rng.uniform(-1.0, 1.0);
  }
  return x;
}

std::vector<int> random_labels(std::size_t n, int k,
                               std::uint64_t seed = 43) {
  icn::util::Rng rng(seed);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(k)));
  }
  return y;
}

void BM_WardNnChain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ml::Matrix x = random_features(n, 73);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::agglomerative_cluster(x, ml::Linkage::kWard));
  }
  state.SetComplexityN(state.range(0));
}
// 4762 is the paper's indoor antenna count (the production shape).
BENCHMARK(BM_WardNnChain)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4762)
    ->Unit(benchmark::kMillisecond)->Complexity();

// Threaded variants pin the pool size via ScopedOverride, so the numbers are
// comparable regardless of ICN_THREADS or the machine's core count.
// args: {n, threads}
void BM_WardNnChainThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const ml::Matrix x = random_features(n, 73);
  icn::util::ThreadPool::ScopedOverride pool(threads);
  state.counters["threads"] = static_cast<double>(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::agglomerative_cluster(x, ml::Linkage::kWard));
  }
}
BENCHMARK(BM_WardNnChainThreads)
    ->ArgsProduct({{2000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// BM_SilhouetteScore and BM_ForestTraining run on a one-lane pool, so host
// steal cannot stretch these gated ops through a descheduled worker; their
// *Threads variants measure lane scaling.
void BM_SilhouetteScore(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ml::Matrix x = random_features(n, 73);
  const auto labels = random_labels(n, 9);
  const ml::CondensedDistances dist(x);
  icn::util::ThreadPool::ScopedOverride pool(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::silhouette_score(dist, labels));
  }
}
BENCHMARK(BM_SilhouetteScore)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4762)
    ->Unit(benchmark::kMillisecond);

void BM_SilhouetteScoreThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const ml::Matrix x = random_features(n, 73);
  const auto labels = random_labels(n, 9);
  const ml::CondensedDistances dist(x);
  icn::util::ThreadPool::ScopedOverride pool(threads);
  state.counters["threads"] = static_cast<double>(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::silhouette_score(dist, labels));
  }
}
BENCHMARK(BM_SilhouetteScoreThreads)
    ->ArgsProduct({{2000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_RscaTransform(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ml::Matrix t = random_features(n, 73);
  for (auto& v : t.data()) v = std::abs(v) + 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_rsca(t));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n) * 73);
}
BENCHMARK(BM_RscaTransform)->Arg(500)->Arg(1000)->Arg(4762)
    ->Unit(benchmark::kMillisecond);

void BM_ForestTraining(benchmark::State& state) {
  const auto trees = static_cast<std::size_t>(state.range(0));
  const ml::Matrix x = random_features(1000, 73);
  const auto y = random_labels(1000, 9);
  icn::util::ThreadPool::ScopedOverride pool(1);
  for (auto _ : state) {
    ml::RandomForest forest;
    ml::RandomForest::Params params;
    params.num_trees = trees;
    forest.fit(x, y, 9, params);
    benchmark::DoNotOptimize(forest);
  }
}
BENCHMARK(BM_ForestTraining)->Arg(10)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// args: {trees, threads}
void BM_ForestTrainingThreads(benchmark::State& state) {
  const auto trees = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const ml::Matrix x = random_features(1000, 73);
  const auto y = random_labels(1000, 9);
  icn::util::ThreadPool::ScopedOverride pool(threads);
  state.counters["threads"] = static_cast<double>(threads);
  for (auto _ : state) {
    ml::RandomForest forest;
    ml::RandomForest::Params params;
    params.num_trees = trees;
    forest.fit(x, y, 9, params);
    benchmark::DoNotOptimize(forest);
  }
}
BENCHMARK(BM_ForestTrainingThreads)
    ->ArgsProduct({{100}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

class ShapFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (forest.is_fitted()) return;
    x = random_features(1000, 20);
    const auto y = random_labels(1000, 4);
    ml::RandomForest::Params params;
    params.num_trees = 50;
    params.max_depth = 10;
    forest.fit(x, y, 4, params);
  }
  ml::Matrix x;
  ml::RandomForest forest;
};

BENCHMARK_F(ShapFixture, BM_TreeShapPerSample)(benchmark::State& state) {
  std::size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::forest_shap(forest, x.row(row)));
    row = (row + 1) % x.rows();
  }
}

BENCHMARK_DEFINE_F(ShapFixture, BM_TreeShapBatchThreads)
(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::vector<std::size_t> rows(64);
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i * 3;
  const ml::Matrix batch = x.select_rows(rows);
  icn::util::ThreadPool::ScopedOverride pool(threads);
  state.counters["threads"] = static_cast<double>(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::forest_shap_batch(forest, batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK_REGISTER_F(ShapFixture, BM_TreeShapBatchThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Paper-shape clustered surrogate input: 4762 rows x 73 features drawn
/// around 9 cluster centres (RSCA-like values in [-1, 1]), labelled by
/// cluster. Unlike random labels, the rows of one cluster take the same
/// turns through most trees, which is what TreeSHAP's leaf memo feeds on.
struct ClusteredData {
  static constexpr std::size_t kRows = 4762;
  static constexpr int kClusters = 9;
  ml::Matrix x{kRows, 73};
  std::vector<int> y = std::vector<int>(kRows);

  ClusteredData() {
    icn::util::Rng rng(2023);
    ml::Matrix centers(kClusters, x.cols());
    for (auto& v : centers.data()) v = rng.uniform(-0.6, 0.6);
    for (std::size_t i = 0; i < kRows; ++i) {
      const auto c = static_cast<std::size_t>(i % kClusters);
      y[i] = static_cast<int>(c);
      for (std::size_t f = 0; f < x.cols(); ++f) {
        x(i, f) = std::clamp(centers(c, f) + rng.normal(0.0, 0.18), -1.0, 1.0);
      }
    }
  }
};

/// The surrogate's forest parameters (core::SurrogateParams).
ml::RandomForest::Params surrogate_params() {
  ml::RandomForest::Params params;
  params.num_trees = 100;
  params.max_depth = 24;
  params.seed = 20231024;
  return params;
}

// arg: rows (the paper's 4762; full preset only).
void BM_ForestFitClustered(benchmark::State& state) {
  static const ClusteredData data;
  for (auto _ : state) {
    ml::RandomForest forest;
    forest.fit(data.x, data.y, ClusteredData::kClusters, surrogate_params());
    benchmark::DoNotOptimize(forest);
  }
}
BENCHMARK(BM_ForestFitClustered)->Arg(4762)->Unit(benchmark::kMillisecond);

// arg: training rows (4762; full preset only). Explains 120 rows of each
// cluster, grouped by cluster like SurrogateExplainer::explain's sample.
void BM_ForestShapClustered(benchmark::State& state) {
  static const ClusteredData data;
  static const ml::RandomForest forest = [] {
    ml::RandomForest f;
    f.fit(data.x, data.y, ClusteredData::kClusters, surrogate_params());
    return f;
  }();
  std::vector<std::size_t> rows;
  for (std::size_t c = 0; c < ClusteredData::kClusters; ++c) {
    for (std::size_t j = 0; j < 120; ++j) rows.push_back(c + j * 9);
  }
  const ml::Matrix batch = data.x.select_rows(rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::forest_shap_batch(forest, batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_ForestShapClustered)->Arg(4762)->Unit(benchmark::kMillisecond);

void BM_ProbeAggregation(benchmark::State& state) {
  // Measurement-path throughput: flows -> ULI decode -> DPI -> aggregate.
  core::ScenarioParams params;
  params.scale = 0.01;
  params.outdoor_ratio = 0.0;
  static const core::Scenario scenario = core::Scenario::build(params);
  const traffic::FlowGenerator generator(scenario.temporal(), 3);
  probe::UliDecoder decoder;
  decoder.register_range(generator.ecgi_of(0),
                         static_cast<std::uint32_t>(scenario.num_antennas()));
  const auto flows = generator.flows_for_antenna(0, 0, 24 * 7);
  std::int64_t flows_done = 0;
  for (auto _ : state) {
    probe::DpiClassifier dpi(scenario.catalog());
    probe::PassiveProbe probe(decoder, dpi);
    const std::vector<std::uint32_t> ids = {0};
    probe::HourlyAggregator agg(ids, scenario.num_services(), 24 * 7);
    agg.add_all(probe.observe_all(flows));
    benchmark::DoNotOptimize(agg);
    flows_done += static_cast<std::int64_t>(flows.size());
  }
  state.SetItemsProcessed(flows_done);
}
BENCHMARK(BM_ProbeAggregation)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// SIMD lanes: the same kernel at each dispatch level, named by the level's
// value. Scalar (0) -> avx2 (2) is the measured value of the runtime
// dispatch; the two lanes produce identical bits
// (tests/ml/test_simd_dispatch.cpp, tests/ml/test_kernels_dispatch.cpp).
// The sse2 (1), avx512 (3) and avx2fma (4) lanes were removed: sse2 tied
// scalar on single-pair distances (1042 vs 1014 ns), avx512 was slower than
// avx2 (1587 vs 821 ns; labeled sums 6.5 vs 5.3 us), and avx2fma changed
// bits for a kernel that is a small share of the cluster analysis.

/// Registers the scalar and avx2 levels as the benchmark's args.
void simd_levels(benchmark::internal::Benchmark* b) {
  for (const int level : {0, 2}) b->Arg(level);
}

/// True when the per-level detail kernel may run on this CPU.
bool level_runnable(icn::util::SimdLevel level) {
  return level <= icn::util::max_supported_simd_level();
}

// args: {level}
void BM_SquaredEuclideanSimd(benchmark::State& state) {
  const auto level = static_cast<icn::util::SimdLevel>(state.range(0));
  if (!level_runnable(level)) {
    state.SkipWithError("SIMD level not supported on this CPU");
    return;
  }
  constexpr std::size_t kDim = 4096;
  icn::util::Rng rng(5);
  std::vector<double> a(kDim), b(kDim);
  for (std::size_t i = 0; i < kDim; ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
  }
  for (auto _ : state) {
    double d = 0.0;
    switch (level) {
      case icn::util::SimdLevel::kScalar:
        d = ml::detail::squared_euclidean_scalar(a.data(), b.data(), kDim);
        break;
      case icn::util::SimdLevel::kAvx2:
        d = ml::detail::squared_euclidean_avx2(a.data(), b.data(), kDim);
        break;
    }
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * kDim * sizeof(double)));
  state.SetLabel(icn::util::simd_level_name(level));
}
BENCHMARK(BM_SquaredEuclideanSimd)->Apply(simd_levels)
    ->Unit(benchmark::kNanosecond);

// Row-batched kernel: one query row against 4 consecutive matrix rows, four
// independent accumulator chains. The win over 4x the single-pair kernel is
// the add-latency bottleneck breaking, not extra SIMD width.
// args: {level}
void BM_SquaredEuclideanX4Simd(benchmark::State& state) {
  const auto level = static_cast<icn::util::SimdLevel>(state.range(0));
  if (!level_runnable(level)) {
    state.SkipWithError("SIMD level not supported on this CPU");
    return;
  }
  constexpr std::size_t kDim = 4096;
  icn::util::Rng rng(5);
  std::vector<double> a(kDim), b(4 * kDim);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  double out[4];
  for (auto _ : state) {
    switch (level) {
      case icn::util::SimdLevel::kScalar:
        ml::detail::squared_euclidean_x4_scalar(a.data(), b.data(), kDim,
                                                kDim, out);
        break;
      case icn::util::SimdLevel::kAvx2:
        ml::detail::squared_euclidean_x4_avx2(a.data(), b.data(), kDim, kDim,
                                              out);
        break;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(5 * kDim * sizeof(double)));
  state.SetLabel(icn::util::simd_level_name(level));
}
BENCHMARK(BM_SquaredEuclideanX4Simd)->Apply(simd_levels)
    ->Unit(benchmark::kNanosecond);

// Silhouette inner loop: per-cluster masked sums of a distance segment.
// args: {level}
void BM_LabeledSumsSimd(benchmark::State& state) {
  const auto level = static_cast<icn::util::SimdLevel>(state.range(0));
  if (!level_runnable(level)) {
    state.SkipWithError("SIMD level not supported on this CPU");
    return;
  }
  constexpr std::size_t kDim = 4096;
  constexpr std::size_t kClusters = 9;
  icn::util::Rng rng(11);
  std::vector<double> d(kDim);
  for (auto& v : d) v = std::abs(rng.normal());
  const auto labels = random_labels(kDim, kClusters, 13);
  double sums[kClusters];
  for (auto _ : state) {
    for (auto& v : sums) v = 0.0;
    switch (level) {
      case icn::util::SimdLevel::kScalar:
        ml::detail::labeled_sums_scalar(d.data(), labels.data(), kDim,
                                        kClusters, sums);
        break;
      case icn::util::SimdLevel::kAvx2:
        ml::detail::labeled_sums_avx2(d.data(), labels.data(), kDim,
                                      kClusters, sums);
        break;
    }
    benchmark::DoNotOptimize(sums);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDim));
  state.SetLabel(icn::util::simd_level_name(level));
}
BENCHMARK(BM_LabeledSumsSimd)->Apply(simd_levels)->Unit(benchmark::kNanosecond);

// ---------------------------------------------------------------------------
// Tiled condensed-distance construction. Every tile size produces
// byte-identical output (tests/ml/test_kernels_dispatch.cpp); the sweep
// measures the cache-blocking win alone. args: {n, tile}
void BM_CondensedDistances(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto tile = static_cast<std::size_t>(state.range(1));
  const ml::Matrix x = random_features(n, 73);
  std::vector<double> out(n * (n - 1) / 2);
  for (auto _ : state) {
    ml::fill_condensed(x, /*squared=*/false, out, tile);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["tile"] = static_cast<double>(tile);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_CondensedDistances)
    ->ArgsProduct({{512, 2000}, {16, 64, 256}})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// CRC32C backends: slicing-by-8 table vs the SSE4.2 crc32 instruction over a
// snapshot-sized buffer.

void BM_Crc32cTable(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> buf(bytes);
  icn::util::Rng rng(17);
  for (auto& v : buf) v = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::detail::crc32c_table_extend(0, buf));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32cTable)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);

void BM_Crc32cHw(benchmark::State& state) {
  if (!icn::util::cpu_supports_crc32c()) {
    state.SkipWithError("no SSE4.2 crc32 instruction on this CPU");
    return;
  }
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> buf(bytes);
  icn::util::Rng rng(17);
  for (auto& v : buf) v = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::detail::crc32c_hw_extend(0, buf));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32cHw)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Scheduler: work-stealing on a deliberately skewed workload (chunk i costs
// ~i work — a triangular profile like the condensed distance rows). Same
// chunks, same outputs at every lane count; only idle time differs.
// args: {threads}
void BM_SchedulerSkewed(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  icn::util::ThreadPool::ScopedOverride pool(threads);
  state.counters["threads"] = static_cast<double>(threads);
  constexpr std::size_t kChunks = 512;
  std::vector<double> out(kChunks);
  for (auto _ : state) {
    icn::util::parallel_for(
        0, kChunks, 1, [&](std::size_t lo, std::size_t) {
          double acc = 0.0;
          for (std::size_t k = 0; k < lo * 300; ++k) {
            acc += 1e-9 * static_cast<double>(k);
          }
          out[lo] = acc;
        });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SchedulerSkewed)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Hungarian assignment with the parallel row/column reduction and gated
// parallel augmenting scans.
void BM_HungarianAssign(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  icn::util::Rng rng(23);
  ml::Matrix cost(n, n);
  for (auto& v : cost.data()) v = rng.uniform(0.0, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::hungarian_min_cost(cost));
  }
}
BENCHMARK(BM_HungarianAssign)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Parallel seasonal-median batch fit across antennas.
// args: {antennas, threads}
void BM_SeasonalBatchFitThreads(benchmark::State& state) {
  const auto antennas = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kHours = 9 * 168;
  icn::util::Rng rng(29);
  std::vector<std::vector<double>> series(antennas,
                                          std::vector<double>(kHours));
  std::vector<std::span<const double>> spans;
  spans.reserve(antennas);
  for (auto& s : series) {
    for (auto& v : s) v = std::abs(rng.normal()) * 1e3;
    spans.emplace_back(s);
  }
  icn::util::ThreadPool::ScopedOverride pool(threads);
  state.counters["threads"] = static_cast<double>(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit_seasonal_batch(spans, 168));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(antennas));
}
BENCHMARK(BM_SeasonalBatchFitThreads)
    ->ArgsProduct({{256}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Smoke preset: drop the big problem sizes; keep one point per op family
  // so the JSON schema and every code path still get exercised in CI.
  return icn::bench::trajectory_main("perf_algorithms",
                                     "-/(1000|2000|4762)($|/)", argc, argv);
}
