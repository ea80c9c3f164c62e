// Seeded, deterministic fault planning for the multi-probe ingest plant,
// and the one ledger every fault family of this module writes to.
//
// ERRANT-style realism (PAPERS.md): a measurement plant must be exercised
// under degraded operating conditions, not just the happy path. A FaultPlan
// turns one 64-bit seed into a complete schedule of faults over (probe,
// event-hour) cells — probe dropout windows, stalls, transient pull
// failures, duplicated/reordered/skewed/truncated batches, checkpoint bit
// flips, poisoned probes — drawn by the shared core in fault/seeded.h, so
// two runs with the same seed face byte-identical hostility.
//
// Every fault actually injected by a feed, disk or transport shim is
// appended to a FaultLedger — the replayable audit trail that
// reproducibility tests compare across runs and that a human reads to see
// exactly what the plant survived.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace icn::fault {

enum class FaultKind : std::uint8_t {
  kDropout,    ///< Probe down for [hour, hour+a): those hours' data never
               ///< exists; the feed stalls a pulls, then resumes after the
               ///< window.
  kTransient,  ///< pull() for this hour throws TransientFeedError a times
               ///< before the batch is delivered.
  kDuplicate,  ///< The batch is redelivered once with the same sequence.
  kReorder,    ///< Batch records permuted across antennas (per-antenna
               ///< relative order preserved, so sums stay bit-identical).
  kSkew,       ///< Batch delivery delayed behind the next a deliveries
               ///< (clock skew between probe and supervisor).
  kTruncate,   ///< First delivery carries only a of the declared b records;
               ///< redelivered intact after the supervisor rejects it.
  kBitFlip,    ///< Checkpoint byte at file offset a XOR'd with mask b after
               ///< the run (silent storage corruption).
  kPoison,     ///< Probe fails persistently from this hour on; only
               ///< quarantine ends the retries.
  kFieldFuzz,  ///< Record a of the batch got field mutation kind b (see
               ///< fault::apply_field_fuzz); the quality layer must repair
               ///< or reject it.
  kSiteOutage, ///< Correlated site power loss: probes in bitmask b are all
               ///< down for [hour, hour+a). ONE event for the whole site
               ///< (logged by the lowest-indexed affected probe).
  kRestart,    ///< Supervisor kill/restart: epoch a ended after b ticks;
               ///< the next epoch resumes from the durable checkpoints.

  // Disk faults (injected by fault::FaultyVfs; see fault/disk.h). For these
  // `site` is the Vfs file id (files numbered in first-open order) and `at`
  // the per-file operation index the fault struck at (the global op count
  // for the crash-model kinds).
  kShortWrite,  ///< write() delivered only a of the requested b bytes.
  kWriteError,  ///< write() failed with an injected I/O error (EIO model).
  kNoSpace,     ///< write() failed with an injected ENOSPC; a = ops left in
                ///< the full-disk run including this one.
  kFsyncFail,   ///< fsync() failed; nothing since the last successful sync
                ///< may be assumed durable.
  kPowerCut,    ///< Simulated power cut landed on this file: a = unsynced
                ///< bytes at risk, b = bytes that survived.
  kCrashDrop,   ///< Crash model dropped the unsynced block at offset a
                ///< (b bytes zeroed or truncated away).
  kCrashTear,   ///< Crash model tore the unsynced block at offset a, keeping
                ///< only b bytes of it.

  // Transport faults (injected by fault::FaultyTransport; see
  // fault/transport.h). For these `site` is the connection id and `at` the
  // reactor tick.
  kPartialRead,   ///< Tick rx budget a bytes; this read delivered b.
  kPartialWrite,  ///< Tick tx budget a bytes; this write accepted b.
  kStall,         ///< Connection frozen this tick (both directions).
  kCorrupt,       ///< Received byte at stream offset a XOR'd with mask b.
  kReset,         ///< Connection killed a ticks after its first I/O.
};

[[nodiscard]] std::string to_string(FaultKind kind);

/// One injected fault at (site, at). What the site and position are, and
/// what `a`/`b` mean, depends on the kind's family (see FaultKind).
struct FaultEvent {
  std::uint64_t site = 0;
  std::int64_t at = 0;
  FaultKind kind{};
  std::int64_t a = 0;
  std::int64_t b = 0;
  bool operator==(const FaultEvent&) const = default;
};

/// One ledger line, labelled per family: "probe=… hour=…" (feed),
/// "file=… op=…" (disk) or "conn=… tick=…" (transport), then the kind
/// name and "a=… b=…".
[[nodiscard]] std::string to_string(const FaultEvent& event);

/// Injection-order audit trail; equal-seed runs must produce equal ledgers.
using FaultLedger = std::vector<FaultEvent>;

/// Human-readable, line-per-event dump of a ledger.
[[nodiscard]] std::string to_text(const FaultLedger& ledger);

struct FaultPlanParams {
  std::uint64_t seed = 1;
  std::size_t num_probes = 1;   ///< Requires >= 1.
  std::int64_t num_hours = 0;   ///< Requires > 0.

  /// P[a dropout window starts at a given (probe, hour)].
  double dropout_rate = 0.0;
  std::int64_t dropout_max_hours = 3;  ///< Window length in [1, max].

  /// P[the pull for a given (probe, hour) fails transiently first].
  double transient_rate = 0.0;
  /// Failures per burst in [1, max]. Keep <= the supervisor's max_retries
  /// unless the test wants quarantines.
  std::int64_t transient_max_failures = 2;

  double duplicate_rate = 0.0;
  double reorder_rate = 0.0;

  double skew_rate = 0.0;
  /// Delivery delay in batches, in [1, max]. The supervisor's
  /// allowed_lateness must cover the worst effective delay.
  std::int64_t skew_max_delay = 2;

  double truncate_rate = 0.0;

  /// P[a probe's checkpoint file gets one byte flipped after the run].
  double bitflip_rate = 0.0;

  /// When set, this probe fails persistently from poison_hour on.
  std::optional<std::size_t> poison_probe;
  std::int64_t poison_hour = 0;

  /// P[a batch's records get per-field fuzz at a given (probe, hour)].
  double field_fuzz_rate = 0.0;
  std::int64_t field_fuzz_max_records = 2;  ///< Mutations per batch [1, max].

  /// P[a correlated site outage starts at a given hour]. Outages are global:
  /// one draw per hour takes down a random probe subset over a shared
  /// window. Requires num_probes <= 64 when > 0 (probe sets are bitmasks).
  double outage_rate = 0.0;
  std::int64_t outage_max_hours = 2;    ///< Window length in [1, max].
  std::size_t outage_min_probes = 2;    ///< Smallest affected probe set.

  /// Supervisor kill/restart schedule (consumed by
  /// fault::run_supervised_with_restarts): the study is killed restart_count
  /// times, each epoch granted a tick budget in [min, max] ticks.
  std::size_t restart_count = 0;
  std::int64_t restart_min_ticks = 4;
  std::int64_t restart_max_ticks = 32;
};

/// Checkpoint bit-flip target, resolved against the actual file by
/// fault::corrupt_snapshot (the plan cannot know section offsets).
struct BitFlipSpec {
  double section_frac = 0.0;  ///< Picks the floor(frac * windows)-th window.
  double byte_frac = 0.0;     ///< Picks a byte within that window's payload.
  std::uint8_t mask = 1;      ///< XOR mask (single bit).
};

/// One correlated site outage: every probe in the mask is down over the
/// shared window [hour, hour + len).
struct OutageSpec {
  std::int64_t hour = 0;
  std::int64_t len = 0;
  std::uint64_t probes = 0;  ///< Bitmask of affected probe indices.

  [[nodiscard]] bool affects(std::size_t probe) const {
    return probe < 64 && (probes >> probe & 1) != 0;
  }
  bool operator==(const OutageSpec&) const = default;
};

/// The deterministic fault schedule. Queries are pure and O(1); the whole
/// schedule is precomputed at construction so iteration order can never
/// change an outcome.
class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanParams params);

  [[nodiscard]] const FaultPlanParams& params() const { return params_; }

  /// Length of the dropout window starting exactly at (probe, hour), or 0.
  [[nodiscard]] std::int64_t dropout_starting_at(std::size_t probe,
                                                 std::int64_t hour) const;
  /// True when (probe, hour) lies inside any dropout window.
  [[nodiscard]] bool dropped(std::size_t probe, std::int64_t hour) const;

  /// Transient failures before the batch for (probe, hour) is delivered.
  [[nodiscard]] std::int64_t transient_failures(std::size_t probe,
                                                std::int64_t hour) const;

  [[nodiscard]] bool duplicated(std::size_t probe, std::int64_t hour) const;
  [[nodiscard]] bool reordered(std::size_t probe, std::int64_t hour) const;

  /// Delivery delay in batches for (probe, hour), or 0.
  [[nodiscard]] std::int64_t skew_delay(std::size_t probe,
                                        std::int64_t hour) const;

  /// Fraction of records kept by a truncated first delivery, or nullopt.
  [[nodiscard]] std::optional<double> truncate_keep_frac(
      std::size_t probe, std::int64_t hour) const;

  [[nodiscard]] bool poisoned(std::size_t probe, std::int64_t hour) const;

  /// Checkpoint corruption target for this probe, if planned.
  [[nodiscard]] std::optional<BitFlipSpec> bitflip(std::size_t probe) const;

  /// Seed for the reorder permutation of (probe, hour).
  [[nodiscard]] std::uint64_t reorder_seed(std::size_t probe,
                                           std::int64_t hour) const;

  /// Records to fuzz in the batch for (probe, hour), or 0.
  [[nodiscard]] std::int64_t fuzz_record_count(std::size_t probe,
                                               std::int64_t hour) const;

  /// Seed for the field mutations of (probe, hour) — lets tests replay the
  /// exact damage on a clean copy of the batch.
  [[nodiscard]] std::uint64_t fuzz_seed(std::size_t probe,
                                        std::int64_t hour) const;

  /// All planned correlated outages, in start-hour order.
  [[nodiscard]] const std::vector<OutageSpec>& outages() const {
    return outages_;
  }

  /// The outage covering (probe, hour), or nullptr.
  [[nodiscard]] const OutageSpec* outage_covering(std::size_t probe,
                                                  std::int64_t hour) const;

  /// Tick budget of restart epoch `epoch` (< restart_count): the epoch is
  /// killed once the budget runs out. The final epoch (== restart_count)
  /// runs to completion and has no budget.
  [[nodiscard]] std::int64_t restart_tick_budget(std::size_t epoch) const;

 private:
  [[nodiscard]] std::size_t cell(std::size_t probe, std::int64_t hour) const;

  FaultPlanParams params_;
  // Per-(probe, hour) schedules, row-major by probe.
  std::vector<std::int64_t> dropout_start_len_;  ///< 0 = no window starts.
  std::vector<std::uint8_t> dropped_;
  std::vector<std::int64_t> transient_;
  std::vector<std::uint8_t> duplicate_;
  std::vector<std::uint8_t> reorder_;
  std::vector<std::int64_t> skew_;
  std::vector<double> truncate_frac_;  ///< < 0 = no truncation.
  std::vector<std::optional<BitFlipSpec>> bitflip_;  ///< Per probe.
  std::vector<std::int64_t> fuzz_count_;  ///< Per cell; 0 = no fuzz.
  std::vector<OutageSpec> outages_;       ///< Start-hour order, disjoint.
  std::vector<std::int32_t> outage_idx_;  ///< Per cell; -1 = no outage.
};

}  // namespace icn::fault
