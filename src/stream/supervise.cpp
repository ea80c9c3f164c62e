#include "stream/supervise.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <numeric>
#include <unordered_set>

#include "util/error.h"
#include "util/rng.h"

namespace icn::stream {

struct FeedSupervisor::Runtime {
  FeedSpec spec;
  std::optional<store::SnapshotWriter> writer;
  std::optional<StreamIngestor> ingestor;
  std::optional<quality::RecordValidator> validator;
  std::vector<HourlyWindow> windows;
  std::vector<std::uint8_t> covered;  ///< Per-hour 0/1, length num_hours.
  std::vector<std::uint32_t> rejected_by_hour;  ///< Length num_hours.
  std::vector<std::uint32_t> repaired_by_hour;  ///< Length num_hours.
  std::unordered_set<std::uint64_t> seen;  ///< Accepted batch sequences.

  FeedState state = FeedState::kActive;
  QuarantineReason reason = QuarantineReason::kNone;
  std::int64_t quarantined_at = -1;
  std::int64_t next_due = 0;
  std::int64_t last_progress = 0;
  std::size_t consecutive_failures = 0;
  bool stall_flagged = false;

  std::size_t pulls = 0;
  std::size_t batches = 0;
  std::size_t records = 0;
  std::size_t transients = 0;
  std::size_t retries = 0;
  std::size_t stalls = 0;
  std::size_t dups = 0;
  std::size_t corrupts = 0;

  // ENOSPC degradation (defer_checkpoint_errors): retry schedule for the
  // feed's pending checkpoint windows and seal-time failure count.
  std::size_t ckpt_attempts = 0;
  std::int64_t ckpt_retry_at = -1;  ///< -1 = no retry scheduled.
  std::size_t seal_failures = 0;

  [[nodiscard]] bool terminal() const {
    return state == FeedState::kDone || state == FeedState::kQuarantined;
  }
};

namespace {

/// Drops seal-time sections (kCoverage/kQuarantine) from a recovered
/// checkpoint so a resumed run can regenerate them: replay rebuilds the same
/// coverage and quarantine state and seal() re-appends identical bytes.
void truncate_seal_sections(const std::string& path, store::Vfs* vfs) {
  std::uint64_t seal_at = 0;
  bool found = false;
  for (const auto& section : store::scan_section_index(path, vfs)) {
    if (section.type == store::SectionType::kCoverage ||
        section.type == store::SectionType::kQuarantine) {
      seal_at = section.header_offset;
      found = true;
      break;
    }
  }
  if (!found) return;
  store::vfs_or_default(vfs).truncate(path, seal_at);
}

}  // namespace

FeedSupervisor::FeedSupervisor(SupervisorParams params,
                               std::vector<FeedSpec> specs)
    : FeedSupervisor(std::move(params), std::move(specs), Mode::kFresh) {}

FeedSupervisor FeedSupervisor::resume(SupervisorParams params,
                                      std::vector<FeedSpec> specs) {
  return FeedSupervisor(std::move(params), std::move(specs), Mode::kResume);
}

FeedSupervisor::FeedSupervisor(SupervisorParams params,
                               std::vector<FeedSpec> specs, Mode mode)
    : params_(std::move(params)) {
  ICN_REQUIRE(params_.num_services > 0, "supervisor needs services");
  ICN_REQUIRE(params_.num_hours > 0, "supervisor needs hours");
  ICN_REQUIRE(params_.num_shards >= 1, "supervisor needs >= 1 shard");
  ICN_REQUIRE(params_.allowed_lateness >= 0, "lateness must be >= 0");
  ICN_REQUIRE(params_.backoff.initial_ticks >= 1, "backoff initial >= 1");
  ICN_REQUIRE(params_.backoff.max_ticks >= params_.backoff.initial_ticks,
              "backoff cap below initial delay");
  ICN_REQUIRE(params_.stall_timeout_ticks >= 1, "stall timeout >= 1");
  ICN_REQUIRE(params_.corrupt_strikes >= 1, "corrupt strikes >= 1");
  ICN_REQUIRE(params_.max_ticks >= 1, "max ticks >= 1");
  ICN_REQUIRE(!specs.empty(), "supervisor needs feeds");

  std::unordered_set<std::uint32_t> all_ids;
  for (auto& spec : specs) {
    ICN_REQUIRE(spec.source != nullptr, "feed source must be set");
    ICN_REQUIRE(!spec.antenna_ids.empty(), "feed needs antennas");
    for (const std::uint32_t id : spec.antenna_ids) {
      ICN_REQUIRE(all_ids.insert(id).second,
                  "antenna ids overlap across feeds");
    }
    auto rt = std::make_unique<Runtime>();
    rt->spec = std::move(spec);
    IngestParams ingest;
    ingest.antenna_ids = rt->spec.antenna_ids;
    ingest.num_services = params_.num_services;
    ingest.num_hours = params_.num_hours;
    ingest.num_shards = params_.num_shards;
    ingest.allowed_lateness = params_.allowed_lateness;
    ingest.defer_checkpoint_errors = params_.defer_checkpoint_errors;
    std::int64_t first_open_hour = 0;
    if (!rt->spec.checkpoint_path.empty()) {
      bool fresh_start = mode != Mode::kResume;
      if (mode == Mode::kResume) {
        try {
          const ResumeInfo info =
              recover_checkpoint(rt->spec.checkpoint_path, params_.vfs);
          first_open_hour = info.first_open_hour;
          truncate_seal_sections(rt->spec.checkpoint_path, params_.vfs);
          {
            // Preload the durable windows so windows()/merge() see the full
            // study; the resumed ingestor only re-emits what was lost.
            const store::MappedSnapshot snap(rt->spec.checkpoint_path,
                                             params_.vfs);
            if (!snap.stream_meta()) {
              // A crash can strip recovery down to the bare file header
              // (the kStreamMeta block was never synced). Appending windows
              // to a meta-less file would leave a checkpoint no reader can
              // interpret — recreate it from scratch instead.
              fresh_start = true;
            } else {
              for (const auto& w : snap.windows()) {
                rt->windows.push_back(HourlyWindow{
                    w.hour,
                    std::vector<double>(w.cells.begin(), w.cells.end())});
              }
            }
          }
          if (!fresh_start) {
            rt->writer.emplace(store::SnapshotWriter::append_to(
                rt->spec.checkpoint_path, params_.vfs));
          }
        } catch (const icn::util::IoError&) {
          // Missing or empty file — nothing durable survived the crash.
          fresh_start = true;
        } catch (const store::SnapshotError&) {
          // The header itself is unusable (torn by an unsynced-block loss).
          fresh_start = true;
        }
        if (fresh_start) {
          rt->windows.clear();
          first_open_hour = 0;
        }
      }
      if (fresh_start) {
        rt->writer.emplace(
            begin_checkpoint(rt->spec.checkpoint_path, ingest, params_.vfs));
      }
    }
    rt->ingestor.emplace(std::move(ingest),
                         rt->writer ? &*rt->writer : nullptr);
    if (first_open_hour > 0) rt->ingestor->resume_before(first_open_hour);
    if (params_.quality) {
      quality::ValidatorParams vp = *params_.quality;
      vp.antenna_ids = rt->spec.antenna_ids;
      vp.num_services = params_.num_services;
      vp.num_hours = params_.num_hours;
      rt->validator.emplace(std::move(vp));
    }
    rt->covered.assign(static_cast<std::size_t>(params_.num_hours), 0);
    rt->rejected_by_hour.assign(static_cast<std::size_t>(params_.num_hours),
                                0);
    rt->repaired_by_hour.assign(static_cast<std::size_t>(params_.num_hours),
                                0);
    feeds_.push_back(std::move(rt));
  }
}

FeedSupervisor::~FeedSupervisor() = default;

FeedSupervisor::FeedSupervisor(FeedSupervisor&&) noexcept = default;

std::size_t FeedSupervisor::num_feeds() const { return feeds_.size(); }

bool FeedSupervisor::finished() const {
  return std::all_of(feeds_.begin(), feeds_.end(),
                     [](const auto& f) { return f->terminal(); });
}

bool FeedSupervisor::step() {
  for (std::size_t i = 0; i < feeds_.size(); ++i) {
    const auto& f = *feeds_[i];
    if (f.ckpt_retry_at >= 0 && f.ckpt_retry_at <= tick_ && !f.terminal()) {
      retry_checkpoint(i);
    }
    if (f.terminal() || f.next_due > tick_) continue;
    poll(i);
  }
  ++tick_;
  return !finished();
}

void FeedSupervisor::schedule_checkpoint_retry(std::size_t feed) {
  auto& f = *feeds_[feed];
  ++f.ckpt_attempts;
  // Reuse the pull-retry backoff curve, capped at its max attempt so a
  // long-lived full disk polls at the ceiling instead of overflowing — and
  // unlike pull retries a checkpoint retry never quarantines: the data is
  // safe in memory, only its durability is late.
  const std::size_t attempt =
      std::min(f.ckpt_attempts, params_.backoff.max_retries + 1);
  const std::int64_t delay = backoff_delay(feed, attempt);
  f.ckpt_retry_at = tick_ + delay;
  events_.push_back({tick_, feed, SupervisorEventKind::kCheckpointRetry,
                     static_cast<std::int64_t>(f.ckpt_attempts), delay});
}

void FeedSupervisor::retry_checkpoint(std::size_t feed) {
  auto& f = *feeds_[feed];
  if (f.ingestor->flush_checkpoint()) {
    f.ckpt_attempts = 0;
    f.ckpt_retry_at = -1;
    return;
  }
  schedule_checkpoint_retry(feed);
}

void FeedSupervisor::run() {
  while (!finished()) {
    if (tick_ >= params_.max_ticks) {
      for (std::size_t i = 0; i < feeds_.size(); ++i) {
        if (!feeds_[i]->terminal()) quarantine(i, QuarantineReason::kTimeout);
      }
      return;
    }
    step();
  }
}

std::int64_t FeedSupervisor::backoff_delay(std::size_t feed,
                                           std::size_t attempt) const {
  // Attempts count from 1 here; the jitter key is the feed, so concurrent
  // feeds desynchronize while equal-seed runs replay the exact schedule.
  const auto& b = params_.backoff;
  return static_cast<std::int64_t>(icn::util::backoff_delay(
      static_cast<std::uint64_t>(b.initial_ticks),
      static_cast<std::uint64_t>(b.max_ticks), attempt - 1, b.jitter_seed,
      feed));
}

void FeedSupervisor::poll(std::size_t feed) {
  auto& f = *feeds_[feed];
  ++f.pulls;
  PullResult result;
  try {
    result = f.spec.source->pull();
  } catch (const TransientFeedError&) {
    ++f.transients;
    ++f.consecutive_failures;
    if (f.consecutive_failures > params_.backoff.max_retries) {
      quarantine(feed, QuarantineReason::kRetriesExhausted);
      return;
    }
    const std::int64_t delay = backoff_delay(feed, f.consecutive_failures);
    f.next_due = tick_ + delay;
    f.state = FeedState::kBackoff;
    ++f.retries;
    events_.push_back({tick_, feed, SupervisorEventKind::kRetryScheduled,
                       static_cast<std::int64_t>(f.consecutive_failures),
                       delay});
    return;
  }

  // The channel answered: the transient-failure streak is over.
  f.consecutive_failures = 0;
  if (f.state == FeedState::kBackoff) f.state = FeedState::kActive;

  switch (result.status) {
    case PullStatus::kEndOfStream:
      finish_feed(feed);
      return;
    case PullStatus::kStalled:
      if (!f.stall_flagged &&
          tick_ - f.last_progress >= params_.stall_timeout_ticks) {
        f.stall_flagged = true;
        f.state = FeedState::kStalled;
        ++f.stalls;
        events_.push_back({tick_, feed, SupervisorEventKind::kStallDetected,
                           f.last_progress, 0});
      }
      f.next_due = tick_ + 1;
      return;
    case PullStatus::kBatch:
      accept_batch(feed, std::move(result.batch));
      return;
  }
}

void FeedSupervisor::accept_batch(std::size_t feed, FeedBatch&& batch) {
  auto& f = *feeds_[feed];
  f.next_due = tick_ + 1;

  // Dedup before anything else: a redelivery of an accepted sequence must
  // not double-count, whatever its payload looks like.
  if (f.seen.contains(batch.sequence)) {
    ++f.dups;
    events_.push_back({tick_, feed, SupervisorEventKind::kDuplicateDropped,
                       static_cast<std::int64_t>(batch.sequence), 0});
    return;
  }

  // Structural validation: a truncated delivery or an out-of-range batch
  // header makes the whole batch untrustworthy. The feed may redeliver it
  // intact (the sequence was not accepted), but repeated corruption trips
  // the circuit breaker. With the quality layer disengaged, an out-of-range
  // record also strikes the whole batch (the pre-quality behavior); with it
  // engaged, per-record defects are judged individually below.
  bool corrupt = batch.records.size() != batch.declared_records ||
                 batch.hour < 0 || batch.hour >= params_.num_hours;
  if (!corrupt && !f.validator) {
    for (const auto& s : batch.records) {
      if (s.hour < 0 || s.hour >= params_.num_hours ||
          s.service >= params_.num_services) {
        corrupt = true;
        break;
      }
    }
  }
  if (corrupt) {
    ++f.corrupts;
    events_.push_back({tick_, feed, SupervisorEventKind::kCorruptBatch,
                       static_cast<std::int64_t>(batch.sequence),
                       static_cast<std::int64_t>(batch.declared_records)});
    if (f.corrupts >= params_.corrupt_strikes) {
      quarantine(feed, QuarantineReason::kCorruptData);
    }
    return;
  }

  const std::size_t delivered = batch.records.size();
  std::size_t rejected = 0;
  std::size_t repaired = 0;
  if (f.validator) {
    // Record-level pass: repair in place, compact rejected records out, and
    // log every non-accepted verdict with provenance. Validation precedes
    // the ingest push, so surviving records always satisfy its REQUIREs.
    ledger_.begin_batch(static_cast<std::uint32_t>(feed), batch.sequence,
                        batch.hour);
    const auto hour = static_cast<std::size_t>(batch.hour);
    std::size_t out = 0;
    for (std::size_t i = 0; i < batch.records.size(); ++i) {
      const quality::Verdict verdict =
          f.validator->validate(batch.records[i], batch.hour);
      ledger_.log(i, verdict);
      if (verdict.action == quality::Action::kRejected) {
        ++rejected;
        ++f.rejected_by_hour[hour];
        continue;
      }
      if (verdict.action == quality::Action::kRepaired) {
        ++repaired;
        ++f.repaired_by_hour[hour];
      }
      if (out != i) batch.records[out] = batch.records[i];
      ++out;
    }
    batch.records.resize(out);
    if (rejected > 0 || repaired > 0) {
      events_.push_back({tick_, feed,
                         SupervisorEventKind::kRecordsQuarantined,
                         static_cast<std::int64_t>(rejected),
                         static_cast<std::int64_t>(repaired)});
    }
  }

  f.seen.insert(batch.sequence);
  f.ingestor->push(batch.records);
  if (f.writer && f.ingestor->pending_checkpoint_windows() > 0 &&
      f.ckpt_retry_at < 0) {
    // The in-push flush failed (counted by the ingestor); put the feed on
    // the capped-backoff retry schedule instead of aborting the study.
    schedule_checkpoint_retry(feed);
  }
  auto closed = f.ingestor->take_closed();
  f.windows.insert(f.windows.end(), std::make_move_iterator(closed.begin()),
                   std::make_move_iterator(closed.end()));
  // A batch that lost every record to rejection delivered no trustworthy
  // data for its hour: the coverage gap is the honest accounting.
  if (delivered == 0 || rejected < delivered) {
    f.covered[static_cast<std::size_t>(batch.hour)] = 1;
  }
  ++f.batches;
  f.records += batch.records.size();
  f.last_progress = tick_;
  f.stall_flagged = false;
  f.state = FeedState::kActive;
}

void FeedSupervisor::seal(std::size_t feed) {
  auto& f = *feeds_[feed];
  f.ingestor->finish();
  auto closed = f.ingestor->take_closed();
  f.windows.insert(f.windows.end(), std::make_move_iterator(closed.begin()),
                   std::make_move_iterator(closed.end()));
  if (f.writer) {
    const auto append_seal_sections_and_sync = [&] {
      const bool complete =
          std::all_of(f.covered.begin(), f.covered.end(),
                      [](std::uint8_t b) { return b != 0; });
      if (!complete) {
        // Written only when needed, so a fully-covered checkpoint stays
        // bit-identical to a plain StreamIngestor checkpoint.
        f.writer->append_coverage(1, params_.num_hours, f.covered);
      }
      const bool quarantined_records =
          std::any_of(f.rejected_by_hour.begin(), f.rejected_by_hour.end(),
                      [](std::uint32_t c) { return c != 0; }) ||
          std::any_of(f.repaired_by_hour.begin(), f.repaired_by_hour.end(),
                      [](std::uint32_t c) { return c != 0; });
      if (quarantined_records) {
        // Same contract as kCoverage: a clean feed's checkpoint carries no
        // quality section and stays byte-identical to a pre-quality one.
        f.writer->append_quarantine(params_.num_hours, f.rejected_by_hour,
                                    f.repaired_by_hour);
      }
      f.writer->sync();
    };
    if (params_.defer_checkpoint_errors) {
      // Degraded seal: a disk that still refuses writes must not abort the
      // finished study. An unflushable checkpoint is left crash-equivalent
      // (valid prefix, no seal sections) — resume() replays it like any
      // kill — and every shortfall lands in checkpoint_failures.
      try {
        if (f.ingestor->flush_checkpoint()) {
          append_seal_sections_and_sync();
        } else {
          ++f.seal_failures;
        }
      } catch (const icn::util::IoError&) {
        ++f.seal_failures;
      }
      try {
        f.writer->close();
      } catch (const icn::util::IoError&) {
        ++f.seal_failures;
      }
    } else {
      append_seal_sections_and_sync();
      f.writer->close();
    }
  }
}

void FeedSupervisor::finish_feed(std::size_t feed) {
  auto& f = *feeds_[feed];
  seal(feed);
  f.state = FeedState::kDone;
  const auto covered_hours = static_cast<std::int64_t>(
      std::count(f.covered.begin(), f.covered.end(), std::uint8_t{1}));
  events_.push_back(
      {tick_, feed, SupervisorEventKind::kFeedDone, covered_hours, 0});
}

void FeedSupervisor::quarantine(std::size_t feed, QuarantineReason reason) {
  auto& f = *feeds_[feed];
  seal(feed);
  f.state = FeedState::kQuarantined;
  f.reason = reason;
  f.quarantined_at = tick_;
  events_.push_back({tick_, feed, SupervisorEventKind::kQuarantined,
                     static_cast<std::int64_t>(reason), 0});
}

FeedStats FeedSupervisor::stats(std::size_t feed) const {
  ICN_REQUIRE(feed < feeds_.size(), "feed index");
  const auto& f = *feeds_[feed];
  FeedStats stats;
  stats.name = f.spec.name;
  stats.state = f.state;
  stats.quarantine_reason = f.reason;
  stats.quarantined_at_tick = f.quarantined_at;
  stats.pulls = f.pulls;
  stats.batches_accepted = f.batches;
  stats.records_accepted = f.records;
  stats.transient_failures = f.transients;
  stats.retries_scheduled = f.retries;
  stats.stall_episodes = f.stalls;
  stats.duplicate_batches = f.dups;
  stats.corrupt_batches = f.corrupts;
  stats.late_dropped = f.ingestor->late_dropped();
  stats.untracked_dropped = f.ingestor->untracked_dropped();
  stats.records_repaired = std::accumulate(
      f.repaired_by_hour.begin(), f.repaired_by_hour.end(), std::size_t{0});
  stats.records_rejected = std::accumulate(
      f.rejected_by_hour.begin(), f.rejected_by_hour.end(), std::size_t{0});
  stats.covered_hours = static_cast<std::int64_t>(
      std::count(f.covered.begin(), f.covered.end(), std::uint8_t{1}));
  stats.checkpoint_failures =
      f.ingestor->checkpoint_failures() + f.seal_failures;
  stats.checkpoint_pending = f.ingestor->pending_checkpoint_windows();
  return stats;
}

const std::vector<HourlyWindow>& FeedSupervisor::windows(
    std::size_t feed) const {
  ICN_REQUIRE(feed < feeds_.size(), "feed index");
  return feeds_[feed]->windows;
}

std::span<const std::uint8_t> FeedSupervisor::covered(std::size_t feed) const {
  ICN_REQUIRE(feed < feeds_.size(), "feed index");
  return feeds_[feed]->covered;
}

std::span<const std::uint32_t> FeedSupervisor::rejected_by_hour(
    std::size_t feed) const {
  ICN_REQUIRE(feed < feeds_.size(), "feed index");
  return feeds_[feed]->rejected_by_hour;
}

std::span<const std::uint32_t> FeedSupervisor::repaired_by_hour(
    std::size_t feed) const {
  ICN_REQUIRE(feed < feeds_.size(), "feed index");
  return feeds_[feed]->repaired_by_hour;
}

MergedStudy FeedSupervisor::merge() const {
  ICN_REQUIRE(finished(), "merge needs every feed done or quarantined");
  std::size_t total_rows = 0;
  for (const auto& f : feeds_) total_rows += f->spec.antenna_ids.size();

  MergedStudy study;
  study.traffic = ml::Matrix(total_rows, params_.num_services);
  study.coverage = CoverageMask(total_rows, params_.num_hours);
  const auto hours = static_cast<std::size_t>(params_.num_hours);
  study.quarantine.rejected_by_hour.assign(hours, 0);
  study.quarantine.repaired_by_hour.assign(hours, 0);
  std::size_t row0 = 0;
  for (const auto& f : feeds_) {
    const std::size_t rows = f->spec.antenna_ids.size();
    study.antenna_ids.insert(study.antenna_ids.end(),
                             f->spec.antenna_ids.begin(),
                             f->spec.antenna_ids.end());
    // Fold the feed's windows in closing order — bit-identical to the live
    // ingestor's running totals, and it also covers the durable windows a
    // resumed feed preloaded instead of re-ingesting.
    ml::Matrix totals(rows, params_.num_services);
    for (const auto& w : f->windows) add_window_cells(totals, w.cells);
    std::copy(totals.data().begin(), totals.data().end(),
              study.traffic.data().begin() +
                  static_cast<std::ptrdiff_t>(row0 * params_.num_services));
    for (std::size_t r = 0; r < rows; ++r) {
      study.coverage.set_row(row0 + r, f->covered);
    }
    for (std::size_t h = 0; h < hours; ++h) {
      study.quarantine.rejected_by_hour[h] += f->rejected_by_hour[h];
      study.quarantine.repaired_by_hour[h] += f->repaired_by_hour[h];
    }
    row0 += rows;
  }
  return study;
}

std::string to_string(const SupervisorEvent& event) {
  std::string out = "t=" + std::to_string(event.tick) +
                    " feed=" + std::to_string(event.feed) + " ";
  switch (event.kind) {
    case SupervisorEventKind::kRetryScheduled:
      out += "retry attempt=" + std::to_string(event.a) +
             " delay=" + std::to_string(event.b);
      break;
    case SupervisorEventKind::kStallDetected:
      out += "stall last_progress=" + std::to_string(event.a);
      break;
    case SupervisorEventKind::kDuplicateDropped:
      out += "duplicate seq=" + std::to_string(event.a);
      break;
    case SupervisorEventKind::kCorruptBatch:
      out += "corrupt seq=" + std::to_string(event.a) +
             " declared=" + std::to_string(event.b);
      break;
    case SupervisorEventKind::kQuarantined:
      out += "quarantined reason=" + std::to_string(event.a);
      break;
    case SupervisorEventKind::kFeedDone:
      out += "done covered_hours=" + std::to_string(event.a);
      break;
    case SupervisorEventKind::kRecordsQuarantined:
      out += "records_quarantined rejected=" + std::to_string(event.a) +
             " repaired=" + std::to_string(event.b);
      break;
    case SupervisorEventKind::kCheckpointRetry:
      out += "checkpoint_retry attempt=" + std::to_string(event.a) +
             " delay=" + std::to_string(event.b);
      break;
  }
  return out;
}

std::uint64_t QuarantineCounts::total_rejected() const {
  return std::accumulate(rejected_by_hour.begin(), rejected_by_hour.end(),
                         std::uint64_t{0});
}

std::uint64_t QuarantineCounts::total_repaired() const {
  return std::accumulate(repaired_by_hour.begin(), repaired_by_hour.end(),
                         std::uint64_t{0});
}

bool QuarantineCounts::any() const {
  return total_rejected() != 0 || total_repaired() != 0;
}

MergedStudy merge_snapshots(std::span<const std::string> paths,
                            store::Vfs* vfs) {
  ICN_REQUIRE(!paths.empty(), "merge needs snapshots");

  std::vector<store::MappedSnapshot> snaps;
  std::vector<bool> truncated;
  snaps.reserve(paths.size());
  for (const auto& path : paths) {
    truncated.push_back(store::recover_snapshot(path, vfs).truncated);
    snaps.emplace_back(path, vfs);
  }

  std::size_t num_services = 0;
  std::int64_t num_hours = 0;
  std::size_t total_rows = 0;
  std::unordered_set<std::uint32_t> all_ids;
  MergedStudy study;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const auto meta = snaps[i].stream_meta();
    if (!meta) {
      throw store::SnapshotError("snapshot " + paths[i] +
                                 ": no kStreamMeta section");
    }
    if (i == 0) {
      num_services = meta->num_services;
      num_hours = meta->num_hours;
      ICN_REQUIRE(num_services > 0 && num_hours > 0, "merged study shape");
    } else if (meta->num_services != num_services ||
               meta->num_hours != num_hours) {
      throw store::SnapshotError("snapshot " + paths[i] +
                                 ": study shape differs from first snapshot");
    }
    for (const std::uint32_t id : meta->antenna_ids) {
      ICN_REQUIRE(all_ids.insert(id).second,
                  "antenna ids overlap across snapshots");
      study.antenna_ids.push_back(id);
    }
    total_rows += meta->antenna_ids.size();
  }

  study.traffic = ml::Matrix(total_rows, num_services);
  study.coverage = CoverageMask(total_rows, num_hours);
  study.quarantine.rejected_by_hour.assign(
      static_cast<std::size_t>(num_hours), 0);
  study.quarantine.repaired_by_hour.assign(
      static_cast<std::size_t>(num_hours), 0);
  std::size_t row0 = 0;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const auto meta = *snaps[i].stream_meta();
    const std::size_t rows = meta.antenna_ids.size();
    const auto windows = snaps[i].windows();
    for (const auto& window : windows) {
      if (window.cells.size() != rows * num_services) {
        throw store::SnapshotError("snapshot " + paths[i] +
                                   ": window shape mismatch");
      }
      const auto out = study.traffic.data();
      for (std::size_t j = 0; j < window.cells.size(); ++j) {
        out[row0 * num_services + j] += window.cells[j];
      }
    }

    std::vector<std::uint8_t> hours(static_cast<std::size_t>(num_hours), 0);
    if (const auto cov = snaps[i].coverage()) {
      if (cov->num_hours != num_hours ||
          (cov->rows != 1 && cov->rows != rows)) {
        throw store::SnapshotError("snapshot " + paths[i] +
                                   ": coverage shape mismatch");
      }
      if (cov->rows == 1) {
        std::copy(cov->covered.begin(), cov->covered.end(), hours.begin());
        for (std::size_t r = 0; r < rows; ++r) {
          study.coverage.set_row(row0 + r, hours);
        }
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          study.coverage.set_row(
              row0 + r,
              cov->covered.subspan(r * static_cast<std::size_t>(num_hours),
                                   static_cast<std::size_t>(num_hours)));
        }
      }
    } else if (truncated[i]) {
      // The coverage record (always appended last) was lost with the tail:
      // only hours whose windows survived are provably covered.
      for (const auto& window : windows) {
        if (window.hour >= 0 && window.hour < num_hours) {
          hours[static_cast<std::size_t>(window.hour)] = 1;
        }
      }
      for (std::size_t r = 0; r < rows; ++r) {
        study.coverage.set_row(row0 + r, hours);
      }
    } else {
      // A cleanly finished checkpoint without a kCoverage section is a
      // fully-covered feed (the supervisor writes the section only when
      // coverage is incomplete).
      std::fill(hours.begin(), hours.end(), std::uint8_t{1});
      for (std::size_t r = 0; r < rows; ++r) {
        study.coverage.set_row(row0 + r, hours);
      }
    }

    if (const auto quar = snaps[i].quarantine()) {
      if (quar->num_hours != num_hours) {
        throw store::SnapshotError("snapshot " + paths[i] +
                                   ": quarantine shape mismatch");
      }
      for (std::size_t h = 0; h < static_cast<std::size_t>(num_hours); ++h) {
        study.quarantine.rejected_by_hour[h] += quar->rejected[h];
        study.quarantine.repaired_by_hour[h] += quar->repaired[h];
      }
    }
    row0 += rows;
  }
  return study;
}

void write_merged_snapshot(const MergedStudy& study, const std::string& path,
                           store::Vfs* vfs) {
  ICN_REQUIRE(study.traffic.rows() == study.antenna_ids.size(),
              "merged study rows");
  ICN_REQUIRE(study.coverage.rows() == study.traffic.rows(),
              "merged study coverage rows");
  store::write_snapshot_atomic(
      path,
      [&](store::SnapshotWriter& writer) {
        writer.append_stream_meta(study.antenna_ids, study.traffic.cols(),
                                  study.coverage.num_hours());
        writer.append_matrix(study.traffic);
        if (!study.coverage.complete()) {
          writer.append_coverage(study.coverage.rows(),
                                 study.coverage.num_hours(),
                                 study.coverage.bits());
        }
        if (study.quarantine.any()) {
          writer.append_quarantine(study.coverage.num_hours(),
                                   study.quarantine.rejected_by_hour,
                                   study.quarantine.repaired_by_hour);
        }
      },
      vfs);
}

}  // namespace icn::stream
