#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_p50_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    // The traced run's own end-to-end figures: minus the untraced run's,
    // they give the tracing overhead.
    {"traced.setup_s", "s"},
    {"traced.peak_rss_mb", "MB"},
    {"traced.op_p50_ms", "ms"},
    {"traffic.scenario_build_s", "s"},
    {"traffic.flow_synth_s", "s"},
    {"traffic.flows", "count"},
    {"traffic.total_series_ms", "ms"},
    {"traffic.service_series_us", "us"},
    {"core.rsca_s", "s"},
    {"core.analyze_clusters_s", "s"},
    {"core.align_s", "s"},
    {"core.surrogate_fit_s", "s"},
    {"core.shap_explain_s", "s"},
    {"core.outdoor_s", "s"},
    {"core.span_coverage", "ratio"},
    {"core.heatmap_total_s", "s"},
    {"core.heatmap_service_s", "s"},
    {"core.snapshot_pipeline_s", "s"},
    {"ml.ward_s", "s"},
    {"ml.condensed_s", "s"},
    {"ml.silhouette_s", "s"},
    {"ml.dunn_s", "s"},
    {"probe.observe_s", "s"},
    {"probe.flows_in", "count"},
    {"probe.sessions_out", "count"},
    {"probe.unknown_location", "count"},
    {"probe.unknown_service", "count"},
    {"probe.classified_ratio", "ratio"},
    {"stream.supervise_s", "s"},
    {"stream.ticks", "count"},
    {"stream.records_accepted", "count"},
    {"stream.records_rejected", "count"},
    {"stream.records_repaired", "count"},
    {"stream.duplicate_batches", "count"},
    {"stream.late_dropped", "count"},
    {"stream.untracked_dropped", "count"},
    {"stream.retries", "count"},
    {"stream.checkpoint_failures", "count"},
    {"stream.accepted_ratio", "ratio"},
    {"stream.merge_s", "s"},
    {"stream.write_merged_s", "s"},
    {"store.write_calls", "count"},
    {"store.bytes_written", "B"},
    {"store.write_s", "s"},
    {"store.fsyncs", "count"},
    {"store.fsync_s", "s"},
    {"store.dir_fsyncs", "count"},
    {"store.map_s", "s"},
    {"store.fsyncs_per_window", "ratio"},
    {"serve.publish_ms_median", "ms"},
    {"serve.publish_ms_max", "ms"},
    {"serve.publishes", "count"},
    {"serve.degraded_publishes", "count"},
    {"serve.dispatch_us.slice_totals", "us"},
    {"serve.dispatch_us.slice_hourly", "us"},
    {"serve.dispatch_us.cluster", "us"},
    {"serve.dispatch_us.shap", "us"},
    {"serve.frames_served", "count"},
    {"serve.connections_refused", "count"},
    {"serve.sessions_evicted", "count"},
    {"serve.reply_bytes", "B"},
    {"serve.ok_ratio", "ratio"},
    {"serve.gen_lag_us", "us"},
    {"serve.p99_us", "us"},
    {"serve.p999_us", "us"},
    {"serve.max_us", "us"},
    {"serve.requests_open", "count"},
    {"serve.requests_closed", "count"},
    {"serve.open_rate_per_s", "1/s"},
    {"serve.p90_us", "us"},
    {"serve.sat_rps", "1/s"},
    // CPU time the hypervisor gave to other guests during the run: the
    // context for any figure above that reads far from its usual value.
    {"host.steal_ratio", "ratio"},
};

const MetricSpec* find(std::span<const MetricSpec> specs,
                       std::string_view name) {
  for (const auto& spec : specs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

void upsert(std::vector<std::pair<std::string, double>>& values,
            std::string_view name, double value) {
  for (auto& [n, v] : values) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values.emplace_back(std::string(name), value);
}

/// JSON number with all its digits; non-finite values (a bug) become null
/// so the line still parses and the fault shows.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::set_end_to_end(std::string_view name, double value) {
  const MetricSpec* spec = find(kEndToEnd, name);
  if (spec == nullptr) {
    throw std::logic_error("unknown end-to-end metric " + std::string(name));
  }
  upsert(end_to_end_, name, value);
  print(name, value, spec->unit);
  if (traced_) set_layer("traced." + std::string(name), value);
}

void Report::set_layer(std::string_view name, double value) {
  const MetricSpec* spec = find(kPerLayer, name);
  if (spec == nullptr) {
    throw std::logic_error("unknown per-layer metric " + std::string(name));
  }
  upsert(layer_, name, value);
  print(name, value, spec->unit);
}

void Report::print(std::string_view name, double value,
                   std::string_view unit) {
  std::printf("  %-34.*s %16.6f %.*s\n", static_cast<int>(name.size()),
              name.data(), value, static_cast<int>(unit.size()), unit.data());
}

void Report::check(bool ok, std::string_view what) {
  std::printf("  [%s] %.*s\n", ok ? "ok" : "FAIL",
              static_cast<int>(what.size()), what.data());
  if (!ok) correct_ = false;
}

void Report::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::print_json() const {
  const std::span<const MetricSpec> specs =
      traced_ ? std::span<const MetricSpec>(kPerLayer)
              : std::span<const MetricSpec>(kEndToEnd);
  const auto& values = traced_ ? layer_ : end_to_end_;
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                   attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : specs) {
    double value = 0.0;
    for (const auto& [n, v] : values) {
      if (n == spec.name) value = v;
    }
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(spec.name).append("\": {\"value\": ");
    out.append(json_number(value)).append(", \"unit\": \"");
    out.append(spec.unit).append("\"}");
  }
  out += "}}";
  std::fflush(stdout);
  std::cout << out << std::endl;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("quantile of no values");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void reset_peak_rss() {
  // "5" resets the VmHWM high-water mark (Linux >= 4.0); where that is not
  // possible the peak stays the process-lifetime one.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

void report_batch(Report& report, const std::vector<double>& setup_times,
                  const std::vector<double>& op_times) {
  const double op_s = median(op_times);
  report.set_end_to_end("setup_s", median(setup_times));
  report.set_end_to_end("peak_rss_mb", peak_rss_mb());
  report.set_end_to_end("op_p50_ms", 1e3 * op_s);
  report.print("repetitions", static_cast<double>(op_times.size()), "count");
}

double layer_seconds(const std::vector<trace::Record>& records,
                     std::string_view root, std::string_view name) {
  const auto totals = trace::totals_under(records, root, name);
  return totals.empty() ? 0.0 : median(totals);
}

double steal_ratio_since(const CpuTicks& start) {
  const CpuTicks now = cpu_ticks();
  const auto total = static_cast<double>(now.total - start.total);
  return total > 0.0 ? static_cast<double>(now.steal - start.steal) / total
                     : 0.0;
}

CpuTicks cpu_ticks() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal ..." in clock ticks, summed over every CPU.
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  stat >> label;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) return {};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

icn::serve::ServedAnalytics served_analytics(
    std::vector<int> labels, int num_clusters,
    const icn::core::ShapSummary& shap) {
  icn::serve::ServedAnalytics analytics;
  analytics.num_clusters = static_cast<std::uint32_t>(num_clusters);
  analytics.labels = std::move(labels);
  for (const auto& ranked : shap.per_cluster) {
    auto& entries = analytics.shap.emplace_back();
    for (const auto& impact : ranked) {
      entries.push_back({static_cast<std::uint32_t>(impact.service),
                         impact.mean_abs_shap, impact.value_shap_correlation,
                         impact.mean_value_in_cluster});
    }
  }
  return analytics;
}

void check_cross_run_digest(const Options& options, Report& report,
                            std::uint64_t digest) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(options.out_dir) / "digests";
  fs::create_directories(dir);
  const fs::path path = dir / (options.workload + "-" +
                               std::to_string(options.seed) + ".txt");
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  std::printf("  %-34s %16s\n", "output digest", hex);
  std::ifstream in(path);
  std::string previous;
  if (in >> previous) {
    report.check(previous == hex,
                 "output digest matches earlier runs of this seed "
                 "(traced and untraced)");
    return;
  }
  std::ofstream(path) << hex << "\n";
}

void warm_thread_pool() {
  std::vector<double> sink(1024, 1.0);
  icn::util::parallel_for(0, sink.size(), 64, [&](std::size_t lo,
                                                  std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sink[i] *= 2.0;
  });
}

}  // namespace perfbench
