// Deterministic chunked thread-pool parallelism for the hot analysis paths.
//
// The pipeline runs over thousands of antennas x 73 services x ~1,560 hours,
// so the dominant kernels (pairwise distances, NN-chain scans, silhouette,
// forest training, SHAP batches, demand-tensor fill) are embarrassingly
// parallel — but every output of this workbench must stay exactly
// reproducible from a single seed. The contract here is therefore stronger
// than "a thread pool":
//
//  * Work is split into chunks whose boundaries depend ONLY on the problem
//    size and the caller-chosen grain, never on the number of threads. Which
//    thread executes a chunk is scheduling noise; what each chunk computes is
//    fixed.
//  * parallel_for chunks write to disjoint outputs (caller's obligation), so
//    results are bit-identical to a serial run.
//  * parallel_reduce stores one partial per chunk and folds the partials
//    left-to-right on the calling thread, so floating-point results are
//    identical for 1 thread and N threads.
//
// Scheduling: chunks are dealt into per-lane ranges (one lane per thread,
// contiguous blocks in chunk order) and executed work-stealing style — each
// lane pops from the bottom of its own range and, when empty, steals from
// the top of another lane's range. Skewed workloads (shrinking upper-triangle
// rows, non-uniform antenna shards) therefore no longer strand idle lanes:
// a straggler's unstarted chunks migrate to whoever is free. Stealing moves
// chunks between threads but never changes what a chunk computes, so the
// bit-exactness contract is untouched.
//
// Sizing: the process-wide pool uses ICN_THREADS when set (>= 1), otherwise
// std::thread::hardware_concurrency(). A malformed ICN_THREADS value throws
// icn::util::EnvConfigError at first use instead of silently falling back.
// ThreadPool::ScopedOverride swaps in a differently-sized pool for tests and
// thread-scaling benches.
//
// Semantics:
//  * The calling thread participates in the work, so a "1-thread" pool runs
//    entirely inline and spawns nothing.
//  * Nested parallel_for/parallel_reduce from inside a pool task runs inline
//    serially (no deadlock, no oversubscription).
//  * An exception thrown by a chunk cancels the unstarted chunks; once every
//    in-flight chunk finished, the exception of the LOWEST-INDEXED chunk that
//    threw is rethrown on the calling thread (deterministic by chunk index,
//    not by wall-clock race order).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.h"

namespace icn::util {

/// Fixed-size pool of worker threads executing chunked jobs. One job runs at
/// a time per pool; submitting threads are serialized and participate in
/// their own job's chunks.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` total lanes of execution (the caller
  /// counts as one, so `num_threads - 1` worker threads are spawned).
  /// Requires num_threads >= 1.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes of execution (workers + the submitting thread).
  [[nodiscard]] std::size_t num_threads() const { return num_threads_; }

  /// The process-wide pool used by parallel_for/parallel_reduce, created on
  /// first use with configured_threads() lanes.
  static ThreadPool& instance();

  /// The pool parallel_for/parallel_reduce would use right now: the innermost
  /// ScopedOverride when one is installed, else instance().
  static ThreadPool& active();

  /// Thread count the global pool is created with: ICN_THREADS when set to a
  /// positive integer, else hardware_concurrency() (at least 1). Throws
  /// EnvConfigError when ICN_THREADS holds garbage.
  [[nodiscard]] static std::size_t configured_threads();

  /// Parses an ICN_THREADS-style value. Returns 0 when the value is unset,
  /// empty, or the explicit "0" (all meaning "use the hardware default");
  /// returns the count (capped at 512) for a plain digit string, blanks
  /// trimmed from the ends only (util::parse_env_uint). Any other value —
  /// negative, non-numeric, trailing junk, inner blanks — throws
  /// EnvConfigError: a typo must not silently hand the pool a default the
  /// operator did not choose.
  [[nodiscard]] static std::size_t parse_thread_count(const char* value);

  /// RAII override of the pool used by parallel_for/parallel_reduce, for
  /// determinism tests and thread-scaling benches. Install and remove from a
  /// single thread only; overrides nest (last installed wins).
  class ScopedOverride {
   public:
    explicit ScopedOverride(std::size_t num_threads);
    ~ScopedOverride();
    ScopedOverride(const ScopedOverride&) = delete;
    ScopedOverride& operator=(const ScopedOverride&) = delete;

   private:
    std::unique_ptr<ThreadPool> pool_;
    ThreadPool* previous_;
  };

  /// Runs fn(0) ... fn(num_chunks - 1), dealing the chunk indices into
  /// per-lane ranges and rebalancing them by stealing. Blocks until every
  /// started chunk finished; rethrows the exception of the lowest-indexed
  /// chunk that threw. Calls from inside a pool task run inline.
  void run_chunks(std::size_t num_chunks,
                  const std::function<void(std::size_t)>& fn);

 private:
  struct Job;

  void worker_loop(std::size_t lane);
  static void work_on(Job& job, std::size_t lane);
  static void record_error(Job& job, std::size_t chunk);

  std::size_t num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_cv_;  // workers wait for a new job
  std::condition_variable done_cv_;  // submitter waits for drain
  Job* job_ = nullptr;               // guarded by mu_
  std::uint64_t generation_ = 0;     // guarded by mu_
  bool stop_ = false;                // guarded by mu_
  std::mutex submit_mu_;             // serializes concurrent submitters
};

namespace detail {

/// Splits [begin, end) into ceil((end-begin)/grain) fixed chunks and runs
/// chunk(chunk_index, chunk_begin, chunk_end) for each on the active pool.
/// Chunk boundaries depend only on (begin, end, grain) — never on threads.
void run_chunked(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& chunk);

/// Number of chunks run_chunked will produce. Requires grain > 0, begin <= end.
[[nodiscard]] inline std::size_t num_chunks(std::size_t begin, std::size_t end,
                                            std::size_t grain) {
  return (end - begin + grain - 1) / grain;
}

}  // namespace detail

/// Picks a grain for [begin, end) from the problem size and the active pool's
/// lane count, aiming for enough chunks per lane that stealing can rebalance
/// a skewed workload, and never below `min_grain`.
///
/// ONLY for disjoint-write parallel_for loops: their outputs are bit-identical
/// under ANY chunk decomposition, so a thread-count-dependent grain is safe.
/// Order-sensitive parallel_reduce folds must keep an explicit fixed grain —
/// their result depends on the chunk boundaries.
/// Requires min_grain > 0 and begin <= end.
[[nodiscard]] std::size_t adaptive_grain(std::size_t begin, std::size_t end,
                                         std::size_t min_grain = 1);

/// Runs body(lo, hi) over consecutive sub-ranges of [begin, end) of at most
/// `grain` indices each. The body must only write state owned by its range;
/// under that contract results are bit-identical to the serial loop.
/// Requires grain > 0 and begin <= end.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Chunked deterministic reduction: partial[c] = map_chunk(lo_c, hi_c) for
/// each fixed chunk, then identity `combine`d with the partials left-to-right
/// in chunk order on the calling thread. The result is identical for every
/// thread count (including 1). Requires grain > 0 and begin <= end.
template <typename T, typename MapFn, typename CombineFn>
[[nodiscard]] T parallel_reduce(std::size_t begin, std::size_t end,
                                std::size_t grain, T identity, MapFn&& map_chunk,
                                CombineFn&& combine) {
  ICN_REQUIRE(grain > 0, "parallel_reduce grain must be positive");
  ICN_REQUIRE(begin <= end, "parallel_reduce range");
  if (begin == end) return identity;
  std::vector<T> partials(detail::num_chunks(begin, end, grain), identity);
  detail::run_chunked(begin, end, grain,
                      [&](std::size_t c, std::size_t lo, std::size_t hi) {
                        partials[c] = map_chunk(lo, hi);
                      });
  T acc = std::move(identity);
  for (T& partial : partials) {
    acc = combine(std::move(acc), std::move(partial));
  }
  return acc;
}

}  // namespace icn::util
