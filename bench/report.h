// Machine-readable perf trajectory for the google-benchmark binaries.
//
// trajectory_main() wraps BENCHMARK_MAIN(): it runs the registered benches
// with the normal console output AND writes BENCH_<name>.json next to the
// working directory — one schema-versioned document per bench binary with
// the run context (git revision, SIMD level, CRC32C backend, hardware
// threads, preset) and one record per benchmark run (op, wall ns/iter,
// iterations, threads, items/bytes per second). CI archives these files and
// the README perf table is regenerated from them, so every commit leaves a
// comparable perf data point — the trajectory — instead of prose numbers
// that silently go stale.
//
// ICN_BENCH_PRESET=smoke switches to a fast subset (small problem sizes,
// low --benchmark_min_time, ten randomly interleaved repetitions of which
// the JSON keeps each benchmark's fastest) for the CI perf-smoke job; the
// JSON records which preset produced it so full and smoke points are never
// conflated.
#pragma once

namespace icn::bench {

/// Runs the registered benchmarks and writes BENCH_<bench_name>.json.
/// `smoke_filter` is a google-benchmark regex applied only under
/// ICN_BENCH_PRESET=smoke (use a leading '-' to exclude heavy benches);
/// pass nullptr to run everything in both presets. Returns the process
/// exit code.
int trajectory_main(const char* bench_name, const char* smoke_filter,
                    int argc, char** argv);

}  // namespace icn::bench
