// Shared scaffolding of the paper-shape benchmark: options, the result
// report every workload fills (its metric tables, in common.cpp, are the
// ones BENCHMARK.json lists), timing and order statistics, and digests.
#pragma once

#include <chrono>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2023;
  double seconds = 10.0;
  bool trace = false;
  /// Output directory inside the checkout: span files and cross-run digests
  /// persist there; `work_dir` below it holds this run's snapshots and is
  /// removed when the run ends.
  std::string out_dir;
  std::string work_dir;
};

/// The seed whose paper-specific headline numbers (chosen k, outdoor count)
/// are gated; other seeds check only seed-independent invariants.
inline constexpr std::uint64_t kPaperSeed = 2023;

/// What one run measured and checked. Every workload prints every
/// end-to-end metric on an untraced run and every per-layer metric on a
/// traced one (0 for a layer it does not drive).
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  /// Records an end-to-end metric; on a traced run also its "traced." twin.
  void set_end_to_end(std::string_view name, double value);
  /// Records a per-layer metric; only names from the per-layer table.
  void set_layer(std::string_view name, double value);
  /// Human-readable line on stdout (never the last line).
  void print(std::string_view name, double value, std::string_view unit);
  /// A correctness check; a failure is reported and makes the run fail.
  void check(bool ok, std::string_view what);
  void count(std::uint64_t attempted, std::uint64_t failed);

  /// Every check held and no operation failed.
  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }
  /// Prints the final JSON line: end-to-end metrics, or per-layer ones on a
  /// traced run.
  void print_json() const;

 private:
  bool traced_;
  std::vector<std::pair<std::string, double>> end_to_end_;
  std::vector<std::pair<std::string, double>> layer_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median (mean of the middle pair for even sizes). Requires non-empty.
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1]. Requires non-empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Runs `op(rep)` until `seconds` have elapsed and at least `min_reps`
/// times, calling the untimed `check(rep)` after each. Returns the
/// per-repetition wall times of `op`.
template <typename Op, typename Check>
std::vector<double> repeat_for(double seconds, std::size_t min_reps, Op&& op,
                               Check&& check) {
  std::vector<double> times;
  const double start = now_s();
  while (times.size() < min_reps || now_s() - start < seconds) {
    const double t0 = now_s();
    op(times.size());
    times.push_back(now_s() - t0);
    check(times.size() - 1);
  }
  return times;
}

/// Median over repetitions (spans named `root`) of the time spent in spans
/// named `name` below each; 0 when there are none.
[[nodiscard]] double layer_seconds(const std::vector<trace::Record>& records,
                                   std::string_view root,
                                   std::string_view name);

/// FNV-1a over raw bytes, chained through `h`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);
/// FNV-1a over the bytes of a contiguous range of trivially copyable values.
template <typename Range>
[[nodiscard]] std::uint64_t digest_of(const Range& values,
                                      std::uint64_t h = 0xcbf29ce484222325ULL) {
  return fnv1a(std::data(values), std::size(values) * sizeof(*std::data(values)),
               h);
}
/// Peak resident set since the last reset_peak_rss() (else since start), MB.
[[nodiscard]] double peak_rss_mb();
/// Starts a new peak-RSS window (inputs stay resident and count; set-up's
/// transient peak does not).
void reset_peak_rss();

/// Reports the end-to-end metrics of a batch workload: median set-up, peak
/// RSS, and the median repetition time.
void report_batch(Report& report, const std::vector<double>& setup_times,
                  const std::vector<double>& op_times);

/// Host CPU accounting from /proc/stat (zeros where unavailable).
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();
/// Share of all CPU time since `start` that the hypervisor stole.
[[nodiscard]] double steal_ratio_since(const CpuTicks& start);

/// Warms lazy process state (the global thread pool) so no timed op pays it.
void warm_thread_pool();

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 3;

/// Times kSetupReps set-ups, each `build` inside a "setup" span after an
/// untimed `discard` of the previous one's output, with lazy process state
/// warmed inside the first. Then starts a new peak-RSS window, so
/// peak_rss_mb covers the measured operations only.
template <typename Discard, typename Build>
std::vector<double> time_setups(Discard&& discard, Build&& build) {
  std::vector<double> times;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    discard();
    const double t0 = now_s();
    {
      const trace::Span setup("setup");
      build();
      warm_thread_pool();
    }
    times.push_back(now_s() - t0);
  }
  reset_peak_rss();
  return times;
}

}  // namespace perfbench
