// icn_perfbench: the paper-shape benchmark binary.
//
//   icn_perfbench --workload <cluster|temporal|plant|serve> [--seed N]
//                 [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// Prints human-readable metric and check lines, then, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics on an untraced run, the per-layer metrics on a
// traced one. Exits 1 when any correctness check failed, 2 on bad usage.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "icn_perfbench: %s\nusage: icn_perfbench --workload "
               "<cluster|temporal|plant|serve> [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.out_dir = ".bench_build/out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  void (*run)(const Options&, Report&) = nullptr;
  if (options.workload == "cluster") run = run_cluster;
  if (options.workload == "temporal") run = run_temporal;
  if (options.workload == "plant") run = run_plant;
  if (options.workload == "serve") run = run_serve;
  if (run == nullptr) return usage("unknown --workload");

  namespace fs = std::filesystem;
  options.work_dir = (fs::path(options.out_dir) /
                      ("work-" + options.workload + "-" +
                       std::to_string(::getpid())))
                         .string();
  fs::create_directories(options.work_dir);

  std::printf("icn_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  trace::enable(options.trace);
  Report report(options.trace);
  const CpuTicks start = cpu_ticks();
  try {
    run(options, report);
  } catch (const std::exception& e) {
    report.check(false, std::string("workload threw: ") + e.what());
  }
  report.set_layer("host.steal_ratio", steal_ratio_since(start));
  if (options.trace) {
    const fs::path dir = fs::path(options.out_dir) / "traces";
    fs::create_directories(dir);
    trace::write_json(trace::records(),
                      (dir / (options.workload + "-" +
                              std::to_string(options.seed) + ".json"))
                          .string());
  }
  std::error_code ignored;
  fs::remove_all(options.work_dir, ignored);
  report.print_json();
  return report.correct() ? 0 : 1;
}
