// Feed supervision: N per-probe ingest pipelines under one deterministic
// supervisor (the multi-process ingest of DESIGN.md §8).
//
// The paper's plant ran one passive probe per site for two months; probes
// stall, fail, redeliver, and emit garbage. The supervisor drives one
// StreamIngestor (and optionally one checkpoint snapshot) per probe feed on a
// virtual clock — one tick per polling round, no wall time anywhere — so
// every run over the same feed behavior is exactly reproducible:
//
//  * Heartbeat: a feed that returns "stalled" for stall_timeout_ticks past
//    its last accepted batch is flagged (and kept polled — probes come back).
//  * Retry/backoff: TransientFeedError schedules a retry after a capped
//    exponential backoff (util::backoff_delay) with a deterministic jitter
//    in [raw/2, raw) derived from (jitter_seed, feed, attempt), so no delay
//    exceeds max_ticks. More than max_retries consecutive failures trip the
//    circuit breaker: the feed is quarantined.
//  * Quarantine: repeated corrupt batches (truncated deliveries, out-of-range
//    records) or exhausted retries permanently remove the feed from polling;
//    its already-validated data is kept and its coverage stops there.
//  * Dedup: redelivered batches are dropped by sequence number before they
//    can double-count traffic.
//  * Coverage: every accepted batch marks its event hour covered for the
//    feed's antennas. A finished feed whose coverage is incomplete appends a
//    kCoverage section to its checkpoint; a fully-covered feed writes
//    nothing extra, keeping the checkpoint bit-identical to a plain
//    single-feed StreamIngestor run.
//
// merge() (live) and merge_snapshots() (durable, after recover_snapshot)
// combine the per-probe results into one study tensor whose rows concatenate
// the feeds' antennas, plus the per-(antenna, hour) coverage mask the
// degraded pipeline mode consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "ml/matrix.h"
#include "quality/ledger.h"
#include "store/snapshot.h"
#include "stream/coverage.h"
#include "stream/feed.h"
#include "stream/ingest.h"

namespace icn::stream {

/// Retry policy for transient pull failures.
struct BackoffParams {
  std::int64_t initial_ticks = 1;  ///< Delay before the first retry.
  std::int64_t max_ticks = 16;     ///< Cap on the exponential delay.
  /// Consecutive transient failures tolerated before quarantine.
  std::size_t max_retries = 6;
  /// Seed of the deterministic jitter of each backoff delay.
  std::uint64_t jitter_seed = 0x1CEB00DAULL;
};

struct SupervisorParams {
  std::size_t num_services = 0;  ///< Requires > 0.
  std::int64_t num_hours = 0;    ///< Requires > 0.
  std::size_t num_shards = 1;    ///< Shards of each per-feed ingestor.
  std::int64_t allowed_lateness = 0;  ///< Must cover the worst clock skew.
  BackoffParams backoff;
  /// Ticks without an accepted batch before a polling feed is flagged
  /// stalled. Requires >= 1.
  std::int64_t stall_timeout_ticks = 8;
  /// Corrupt batches tolerated per feed before quarantine. Requires >= 1.
  std::size_t corrupt_strikes = 3;
  /// Hard bound on run(); feeds still pending then are quarantined with
  /// reason kTimeout.
  std::int64_t max_ticks = 1'000'000;
  /// Record-level data quality (opt-in). When set, the per-record range scan
  /// of accept_batch is replaced by a quality::RecordValidator: repairable
  /// defects are fixed in place, fatal ones drop just the offending record
  /// (logged to the quarantine ledger with provenance) instead of striking
  /// the whole batch. The roster/shape fields (antenna_ids, num_services,
  /// num_hours) are overwritten per feed from the spec and these params.
  /// Disengaged (the default) keeps the pre-quality behavior bit-for-bit.
  std::optional<quality::ValidatorParams> quality;
  /// All checkpoint I/O (create, recover, resume-append, seal) flows through
  /// this Vfs — the disk-fault seam of the chaos suite. nullptr (the
  /// default) is store::posix_vfs(), bit-identical to direct syscalls.
  store::Vfs* vfs = nullptr;
  /// Opt-in graceful degradation on checkpoint I/O errors (the ENOSPC
  /// model): a failed checkpoint append parks the window in memory and the
  /// supervisor retries with its capped backoff schedule
  /// (kCheckpointRetry events); the study always completes, with failures
  /// surfaced in FeedStats::checkpoint_failures. A seal that still cannot
  /// flush leaves the checkpoint file crash-equivalent (a valid prefix
  /// missing its tail) — resume() replays exactly as after a kill. When
  /// false (the default) checkpoint IoErrors propagate and abort the study,
  /// the pre-degradation behavior.
  bool defer_checkpoint_errors = false;
};

/// One probe feed under supervision.
struct FeedSpec {
  std::string name;
  /// Antennas this probe covers; disjoint across feeds. Rows of the merged
  /// study concatenate these in spec order.
  std::vector<std::uint32_t> antenna_ids;
  BatchSource* source = nullptr;  ///< Must outlive the supervisor.
  std::string checkpoint_path;    ///< Empty = no per-probe durability.
};

enum class FeedState : std::uint8_t {
  kActive,
  kStalled,      ///< Heartbeat timeout tripped; still polled.
  kBackoff,      ///< Waiting out a retry delay.
  kDone,         ///< Source reported end of stream.
  kQuarantined,  ///< Circuit breaker tripped; never polled again.
};

enum class QuarantineReason : std::uint8_t {
  kNone,
  kRetriesExhausted,
  kCorruptData,
  kTimeout,
};

struct FeedStats {
  std::string name;
  FeedState state = FeedState::kActive;
  QuarantineReason quarantine_reason = QuarantineReason::kNone;
  std::int64_t quarantined_at_tick = -1;
  std::size_t pulls = 0;
  std::size_t batches_accepted = 0;
  std::size_t records_accepted = 0;
  std::size_t transient_failures = 0;
  std::size_t retries_scheduled = 0;
  std::size_t stall_episodes = 0;
  std::size_t duplicate_batches = 0;
  std::size_t corrupt_batches = 0;
  std::size_t late_dropped = 0;       ///< From the feed's ingestor.
  std::size_t untracked_dropped = 0;  ///< From the feed's ingestor.
  std::size_t records_repaired = 0;   ///< Quality layer (0 when disengaged).
  std::size_t records_rejected = 0;   ///< Quality layer (0 when disengaged).
  std::int64_t covered_hours = 0;
  /// Failed checkpoint append/sync attempts (defer_checkpoint_errors mode;
  /// 0 on a healthy disk). Surfaced study-wide through serve's kHealth.
  std::size_t checkpoint_failures = 0;
  /// Windows closed but not durable in the checkpoint (degraded mode).
  std::size_t checkpoint_pending = 0;
};

enum class SupervisorEventKind : std::uint8_t {
  kRetryScheduled,    ///< a = attempt, b = delay ticks.
  kStallDetected,     ///< a = last progress tick.
  kDuplicateDropped,  ///< a = sequence.
  kCorruptBatch,      ///< a = sequence, b = declared record count.
  kQuarantined,       ///< a = QuarantineReason.
  kFeedDone,          ///< a = covered hours.
  kRecordsQuarantined,  ///< a = records rejected, b = records repaired.
  kCheckpointRetry,   ///< a = attempt, b = delay ticks (ENOSPC degradation).
};

/// One supervision decision — the deterministic audit log two equal-seed
/// runs must reproduce verbatim.
struct SupervisorEvent {
  std::int64_t tick = 0;
  std::size_t feed = 0;
  SupervisorEventKind kind{};
  std::int64_t a = 0;
  std::int64_t b = 0;
  bool operator==(const SupervisorEvent&) const = default;
};

[[nodiscard]] std::string to_string(const SupervisorEvent& event);

/// Per-hour record-quarantine totals of a study (summed across feeds). The
/// arrays are always sized num_hours; all-zero means a clean run.
struct QuarantineCounts {
  std::vector<std::uint32_t> rejected_by_hour;
  std::vector<std::uint32_t> repaired_by_hour;

  [[nodiscard]] std::uint64_t total_rejected() const;
  [[nodiscard]] std::uint64_t total_repaired() const;
  [[nodiscard]] bool any() const;
  bool operator==(const QuarantineCounts&) const = default;
};

/// The merged multi-probe study: tensor rows concatenate the feeds' antennas
/// in spec order, and the mask records which (antenna, hour) cells are
/// backed by delivered data.
struct MergedStudy {
  std::vector<std::uint32_t> antenna_ids;
  ml::Matrix traffic;  ///< (antenna x service) MB totals.
  CoverageMask coverage;
  QuarantineCounts quarantine;  ///< Study-wide per-hour quarantine counts.
};

class FeedSupervisor {
 public:
  /// Feeds with a checkpoint_path get a fresh checkpoint created here.
  /// Requires valid params, >= 1 feed, and globally disjoint antenna ids.
  FeedSupervisor(SupervisorParams params, std::vector<FeedSpec> specs);
  ~FeedSupervisor();  // Out of line: Runtime is an incomplete type here.
  FeedSupervisor(FeedSupervisor&&) noexcept;  // Same reason.
  FeedSupervisor& operator=(FeedSupervisor&&) = delete;
  FeedSupervisor(const FeedSupervisor&) = delete;
  FeedSupervisor& operator=(const FeedSupervisor&) = delete;

  /// Resumes a killed study from the feeds' durable checkpoints. For every
  /// feed with a checkpoint_path: recovers the snapshot (truncating a torn
  /// tail and any seal-time kCoverage/kQuarantine sections, which replay
  /// regenerates), preloads the durable windows, reopens the file for
  /// append, and puts the feed's ingestor in resume_before() mode so the
  /// replayed source skips already-durable records. Sources must replay from
  /// the start of the stream; coverage and quarantine accounting rebuild
  /// fully during replay, so a resumed run converges on the same merged
  /// study, ledger, and checkpoint bytes as an uninterrupted one. Feeds
  /// without a checkpoint_path start fresh. A checkpoint destroyed beyond
  /// use (missing, empty, or an unusable header — e.g. a simulated power
  /// cut tore the first blocks) is equivalent to no checkpoint: that feed
  /// starts fresh and replay regenerates the file, so crash recovery never
  /// aborts on a mangled file.
  [[nodiscard]] static FeedSupervisor resume(SupervisorParams params,
                                             std::vector<FeedSpec> specs);

  /// One polling round: every runnable feed due at the current tick is
  /// polled once, then the virtual clock advances. Returns true while any
  /// feed is not yet done/quarantined.
  bool step();

  /// Drives all feeds to completion or quarantine (bounded by max_ticks).
  void run();

  [[nodiscard]] std::int64_t now() const { return tick_; }
  [[nodiscard]] std::size_t num_feeds() const;
  [[nodiscard]] bool finished() const;

  [[nodiscard]] FeedStats stats(std::size_t feed) const;
  [[nodiscard]] const std::vector<SupervisorEvent>& events() const {
    return events_;
  }

  /// Closed windows of one feed, in closing order (accumulated; not
  /// consumed). Bit-identical to a plain StreamIngestor over the same
  /// batches.
  [[nodiscard]] const std::vector<HourlyWindow>& windows(
      std::size_t feed) const;

  /// Per-hour covered bitmap (0/1 bytes, length num_hours) of one feed.
  [[nodiscard]] std::span<const std::uint8_t> covered(std::size_t feed) const;

  /// The study-wide quarantine ledger (empty when quality is disengaged).
  /// Entries carry the feed index as `probe`.
  [[nodiscard]] const quality::QuarantineLedger& quarantine_ledger() const {
    return ledger_;
  }

  /// Per-hour rejected/repaired record counts of one feed (length
  /// num_hours; all zero when quality is disengaged).
  [[nodiscard]] std::span<const std::uint32_t> rejected_by_hour(
      std::size_t feed) const;
  [[nodiscard]] std::span<const std::uint32_t> repaired_by_hour(
      std::size_t feed) const;

  /// Merges the per-feed totals and coverage into the study tensor.
  /// Requires finished().
  [[nodiscard]] MergedStudy merge() const;

 private:
  struct Runtime;

  enum class Mode : std::uint8_t { kFresh, kResume };
  FeedSupervisor(SupervisorParams params, std::vector<FeedSpec> specs,
                 Mode mode);

  void poll(std::size_t feed);
  void accept_batch(std::size_t feed, FeedBatch&& batch);
  void finish_feed(std::size_t feed);
  void quarantine(std::size_t feed, QuarantineReason reason);
  void seal(std::size_t feed);  ///< Shared tail of finish/quarantine.
  void schedule_checkpoint_retry(std::size_t feed);
  void retry_checkpoint(std::size_t feed);
  [[nodiscard]] std::int64_t backoff_delay(std::size_t feed,
                                           std::size_t attempt) const;

  SupervisorParams params_;
  std::vector<std::unique_ptr<Runtime>> feeds_;
  std::vector<SupervisorEvent> events_;
  quality::QuarantineLedger ledger_;
  std::int64_t tick_ = 0;
};

/// Durable-path merge: recovers each per-probe checkpoint (truncating torn
/// or corrupted tails), loads its windows, and merges them into the study
/// tensor. Coverage per feed comes from its kCoverage section when present;
/// a truncated snapshot without one is credited only for the hours whose
/// windows survived, and a clean snapshot without one counts as fully
/// covered. Quarantine counts sum each snapshot's kQuarantine section (a
/// truncated snapshot that lost it contributes zeros). Requires >= 1 path,
/// consistent services/hours across snapshots, and globally disjoint antenna
/// ids.
[[nodiscard]] MergedStudy merge_snapshots(std::span<const std::string> paths,
                                          store::Vfs* vfs = nullptr);

/// Writes a merged study as one snapshot: kStreamMeta + kMatrix (+ kCoverage
/// when incomplete, + kQuarantine when any record was quarantined).
/// run_pipeline_from_snapshot consumes this directly. The write is
/// crash-atomic (store::write_snapshot_atomic: seal to `<path>.tmp`, fsync,
/// rename, fsync the parent directory), so a concurrent or subsequent reader
/// — serve::SnapshotRegistry::try_publish_file in particular — can only ever
/// observe the previous complete file or the new complete file.
void write_merged_snapshot(const MergedStudy& study, const std::string& path,
                           store::Vfs* vfs = nullptr);

}  // namespace icn::stream
