#include "report.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "store/crc32c.h"
#include "util/simd.h"

#ifndef ICN_GIT_REV
#define ICN_GIT_REV "unknown"
#endif

namespace icn::bench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// "BM_WardNnChainThreads/2000/4" -> "WardNnChainThreads".
std::string op_of(const std::string& name) {
  std::string op = name.substr(0, name.find('/'));
  if (op.rfind("BM_", 0) == 0) op = op.substr(3);
  // Fixture benches print as "Fixture/BM_Name"; keep the BM_ segment.
  const std::size_t bm = name.find("BM_");
  if (bm != std::string::npos) {
    op = name.substr(bm + 3);
    op = op.substr(0, op.find('/'));
  }
  return op;
}

double wall_ns_per_iter(const benchmark::BenchmarkReporter::Run& run) {
  const double iters =
      run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
  return run.real_accumulated_time / iters * 1e9;
}

/// Keeps the fastest repetition of every benchmark, in registration order,
/// while the base ConsoleReporter keeps the normal console output. Noise on
/// a shared host only ever adds time, so the fastest of several repetitions
/// is the stable estimate; without --benchmark_repetitions each benchmark
/// has one run and it is kept as is.
class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  bool ReportContext(const Context& context) override {
    return benchmark::ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto key =
          std::make_pair(run.family_index, run.per_family_instance_index);
      const auto [it, fresh] = fastest_.try_emplace(key, run);
      if (!fresh && wall_ns_per_iter(run) < wall_ns_per_iter(it->second)) {
        it->second = run;
      }
    }
    benchmark::ConsoleReporter::ReportRuns(report);
  }

  [[nodiscard]] std::vector<Run> runs() const {
    std::vector<Run> out;
    out.reserve(fastest_.size());
    for (const auto& [key, run] : fastest_) out.push_back(run);
    return out;
  }

 private:
  std::map<std::pair<std::int64_t, std::int64_t>, Run> fastest_;
};

/// One run record. wall_ns is real time per iteration; "threads" prefers the
/// bench's own counter (the ScopedOverride pool size) over google-benchmark's
/// thread count, which is always 1 here.
std::string run_json(const benchmark::BenchmarkReporter::Run& run) {
  const double wall_ns = wall_ns_per_iter(run);
  double threads = static_cast<double>(run.threads);
  std::string extra;
  for (const auto& [name, counter] : run.counters) {
    if (name == "threads") {
      threads = counter.value;
      continue;
    }
    extra += ", \"" + json_escape(name) + "\": " + json_number(counter.value);
  }
  std::string out = "    {\"name\": \"";
  out += json_escape(run.benchmark_name());
  out += "\", \"op\": \"";
  out += json_escape(op_of(run.benchmark_name()));
  out += "\", \"iterations\": ";
  out += std::to_string(static_cast<long long>(run.iterations));
  out += ", \"wall_ns\": ";
  out += json_number(wall_ns);
  out += ", \"threads\": ";
  out += json_number(threads);
  out += extra;
  out += "}";
  return out;
}

}  // namespace

int trajectory_main(const char* bench_name, const char* smoke_filter,
                    int argc, char** argv) {
  const char* preset_env = std::getenv("ICN_BENCH_PRESET");
  const bool smoke =
      preset_env != nullptr && std::string(preset_env) == "smoke";

  // Inject the smoke preset's flags before the user's, so explicit flags on
  // the command line still win.
  std::vector<std::string> arg_storage;
  arg_storage.emplace_back(argv[0]);
  if (smoke) {
    arg_storage.emplace_back("--benchmark_min_time=0.05");
    // Ten repetitions in random order spread every benchmark over the whole
    // run (about 40 s for perf_algorithms), so a spell of host contention
    // slows some of its repetitions but rarely all of them; the JSON keeps
    // the fastest (TrajectoryReporter).
    arg_storage.emplace_back("--benchmark_repetitions=10");
    arg_storage.emplace_back("--benchmark_enable_random_interleaving=true");
    if (smoke_filter != nullptr && smoke_filter[0] != '\0') {
      arg_storage.emplace_back(std::string("--benchmark_filter=") +
                               smoke_filter);
    }
  }
  for (int i = 1; i < argc; ++i) arg_storage.emplace_back(argv[i]);
  std::vector<char*> args;
  args.reserve(arg_storage.size());
  for (auto& a : arg_storage) args.push_back(a.data());
  int argc_adj = static_cast<int>(args.size());
  benchmark::Initialize(&argc_adj, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc_adj, args.data())) return 1;

  TrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  const std::string path = std::string("BENCH_") + bench_name + ".json";
  std::ofstream out(path);
  out << "{\n";
  out << "  \"schema\": \"icn-bench-v1\",\n";
  out << "  \"bench\": \"" << json_escape(bench_name) << "\",\n";
  out << "  \"git_rev\": \"" << json_escape(ICN_GIT_REV) << "\",\n";
  out << "  \"preset\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  out << "  \"simd\": \""
      << icn::util::simd_level_name(icn::util::simd_level()) << "\",\n";
  out << "  \"crc32c_backend\": \"" << icn::store::crc32c_backend()
      << "\",\n";
  const unsigned hw_threads = std::thread::hardware_concurrency();
  out << "  \"hw_threads\": " << hw_threads << ",\n";
  if (hw_threads <= 1) {
    out << "  \"notes\": \"single-core host: threaded sweeps measure "
           "scheduling overhead, not parallel speedup\",\n";
  }
  out << "  \"runs\": [\n";
  const auto& runs = reporter.runs();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out << run_json(runs[i]) << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  out.close();
  std::fprintf(stderr, "wrote %s (%zu runs, preset %s)\n", path.c_str(),
               runs.size(), smoke ? "smoke" : "full");
  benchmark::Shutdown();
  return 0;
}

}  // namespace icn::bench
