#include "fault/disk.h"

#include <algorithm>

#include "fault/seeded.h"
#include "util/error.h"

namespace icn::fault {

DiskFaultPlan::DiskFaultPlan(DiskFaultPlanParams params)
    : params_(params) {
  ICN_REQUIRE(params_.crash_block_size >= 8, "crash block size");
  ICN_REQUIRE(params_.enospc_max_run >= 1, "enospc run length");
  ICN_REQUIRE(params_.crash_drop_rate >= 0.0 && params_.crash_tear_rate >= 0.0,
              "crash rates");
}

std::optional<std::uint64_t> DiskFaultPlan::short_write_keep(
    std::uint64_t file_id, std::uint64_t op, std::uint64_t len) const {
  if (len <= 1) return std::nullopt;
  auto rng = seeded(params_.seed, file_id, op, Tag::kShortWrite);
  const std::uint64_t keep =
      draw_count(rng, params_.short_write_rate, len - 1);
  if (keep == 0) return std::nullopt;
  return keep;
}

bool DiskFaultPlan::write_error(std::uint64_t file_id,
                                std::uint64_t op) const {
  return seeded(params_.seed, file_id, op, Tag::kWriteError)
      .bernoulli(params_.write_error_rate);
}

std::int64_t DiskFaultPlan::enospc_run_starting(std::uint64_t file_id,
                                                std::uint64_t op) const {
  auto rng = seeded(params_.seed, file_id, op, Tag::kNoSpace);
  return static_cast<std::int64_t>(
      draw_count(rng, params_.enospc_rate,
                 static_cast<std::uint64_t>(params_.enospc_max_run)));
}

bool DiskFaultPlan::fsync_fails(std::uint64_t file_id,
                                std::uint64_t op) const {
  return seeded(params_.seed, file_id, op, Tag::kFsyncFail)
      .bernoulli(params_.fsync_fail_rate);
}

DiskFaultPlan::BlockFate DiskFaultPlan::crash_block_fate(
    std::uint64_t file_id, std::uint64_t block_offset) const {
  auto rng = seeded(params_.seed, file_id, block_offset, Tag::kCrashFate);
  const double drop = std::min(params_.crash_drop_rate, 1.0);
  const double tear = std::min(params_.crash_tear_rate, 1.0 - drop);
  const double u = rng.uniform();
  if (u < drop) return BlockFate::kDropped;
  if (u < drop + tear) return BlockFate::kTorn;
  return BlockFate::kSurvives;
}

std::uint64_t DiskFaultPlan::crash_tear_keep(std::uint64_t file_id,
                                             std::uint64_t block_offset,
                                             std::uint64_t block_len) const {
  if (block_len == 0) return 0;
  auto rng = seeded(params_.seed, file_id, block_offset, Tag::kCrashTear);
  return static_cast<std::uint64_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(block_len) - 1));
}

// ---------------------------------------------------------------------------
// FaultyVfs

FaultyVfs::FaultyVfs(DiskFaultPlan plan, Vfs* inner)
    : plan_(plan), inner_(&icn::store::vfs_or_default(inner)) {}

FaultyVfs::FileState& FaultyVfs::state_for(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    FileState st;
    st.file_id = next_file_id_++;
    it = files_.emplace(path, st).first;
  }
  return it->second;
}

void FaultyVfs::log(std::uint64_t file_id, std::uint64_t op, FaultKind kind,
                    std::uint64_t a, std::uint64_t b) {
  ledger_.push_back({file_id, static_cast<std::int64_t>(op), kind,
                     static_cast<std::int64_t>(a),
                     static_cast<std::int64_t>(b)});
}

void FaultyVfs::maybe_crash(const std::string& path, const char* op) {
  if (crashed_) {
    throw SimulatedCrash(path + ": " + op +
                         " on a crashed machine (simulated)");
  }
  if (crash_at_.has_value() && ops_ >= *crash_at_) {
    crashed_ = true;
    throw SimulatedCrash("simulated power cut before op " +
                         std::to_string(ops_) + " (" + op + " " + path + ")");
  }
}

icn::store::VfsFile FaultyVfs::open(const std::string& path, OpenMode mode) {
  icn::store::VfsFile file = inner_->open(path, mode);
  std::lock_guard<std::mutex> lock(mu_);
  const bool fresh = files_.find(path) == files_.end();
  FileState& st = state_for(path);
  if (mode == OpenMode::kCreateTruncate) {
    st.synced_size = 0;
    st.max_size = 0;
  } else if (fresh) {
    // A file that predates the shim (e.g. reopened after recovery) is
    // durable as-is: only bytes written through the shim are at risk.
    try {
      st.synced_size = inner_->size(file);
      st.max_size = st.synced_size;
    } catch (...) {
      inner_->close(file);
      throw;
    }
  }
  return file;
}

std::size_t FaultyVfs::write(icn::store::VfsFile& file,
                             std::span<const std::uint8_t> bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  FileState& st = state_for(file.path);
  maybe_crash(file.path, "write");
  const std::uint64_t op = st.write_ops++;
  ++ops_;
  if (st.enospc_left == 0) {
    st.enospc_left = plan_.enospc_run_starting(st.file_id, op);
  }
  if (st.enospc_left > 0) {
    log(st.file_id, op, FaultKind::kNoSpace,
        static_cast<std::uint64_t>(st.enospc_left), bytes.size());
    --st.enospc_left;
    throw icn::util::IoError(file.path +
                             ": write failed: no space left on device "
                             "(injected)");
  }
  if (plan_.write_error(st.file_id, op)) {
    log(st.file_id, op, FaultKind::kWriteError, 0, bytes.size());
    throw icn::util::IoError(file.path +
                             ": write failed: input/output error (injected)");
  }
  std::span<const std::uint8_t> to_write = bytes;
  if (const auto keep =
          plan_.short_write_keep(st.file_id, op, bytes.size())) {
    to_write = bytes.first(static_cast<std::size_t>(*keep));
    log(st.file_id, op, FaultKind::kShortWrite, *keep, bytes.size());
  }
  // Deliver the (possibly shortened) span in full so the count the caller
  // sees is exactly the planned one.
  std::size_t at = 0;
  while (at < to_write.size()) {
    at += inner_->write(file, to_write.subspan(at));
  }
  st.max_size = std::max(st.max_size, inner_->size(file));
  return to_write.size();
}

std::size_t FaultyVfs::pread(icn::store::VfsFile& file,
                             std::span<std::uint8_t> out,
                             std::uint64_t offset) {
  return inner_->pread(file, out, offset);
}

std::size_t FaultyVfs::pwrite(icn::store::VfsFile& file,
                              std::span<const std::uint8_t> bytes,
                              std::uint64_t offset) {
  // In-place overwrites are outside the crash model (see header); they pass
  // through untracked.
  return inner_->pwrite(file, bytes, offset);
}

void FaultyVfs::fsync(icn::store::VfsFile& file) {
  std::lock_guard<std::mutex> lock(mu_);
  FileState& st = state_for(file.path);
  maybe_crash(file.path, "fsync");
  const std::uint64_t op = st.fsync_ops++;
  ++ops_;
  if (plan_.fsync_fails(st.file_id, op)) {
    log(st.file_id, op, FaultKind::kFsyncFail, 0, 0);
    throw icn::util::IoError(file.path +
                             ": fsync failed: input/output error (injected)");
  }
  inner_->fsync(file);
  st.synced_size = inner_->size(file);
  st.max_size = std::max(st.max_size, st.synced_size);
}

void FaultyVfs::ftruncate(icn::store::VfsFile& file, std::uint64_t size) {
  // Never injected: append rollback must be able to restore the valid
  // prefix even on a failing disk (a real disk's metadata path is far more
  // reliable than its data path, and injecting here would only test the
  // injector).
  inner_->ftruncate(file, size);
  std::lock_guard<std::mutex> lock(mu_);
  FileState& st = state_for(file.path);
  st.max_size = size;
  st.synced_size = std::min(st.synced_size, size);
}

void FaultyVfs::truncate(const std::string& path, std::uint64_t size) {
  inner_->truncate(path, size);
  std::lock_guard<std::mutex> lock(mu_);
  FileState& st = state_for(path);
  st.max_size = size;
  st.synced_size = std::min(st.synced_size, size);
}

void FaultyVfs::rename(const std::string& from, const std::string& to) {
  inner_->rename(from, to);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = files_.find(from);
  if (it != files_.end()) {
    FileState st = it->second;
    files_.erase(it);
    files_[to] = st;  // Replaces any state of the old `to`.
  }
}

void FaultyVfs::remove(const std::string& path) {
  inner_->remove(path);
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(path);
}

std::uint64_t FaultyVfs::size(icn::store::VfsFile& file) {
  return inner_->size(file);
}

void FaultyVfs::close(icn::store::VfsFile& file) { inner_->close(file); }

void FaultyVfs::fsync_parent_dir(const std::string& path) {
  inner_->fsync_parent_dir(path);
}

icn::store::Vfs::MappedRegion FaultyVfs::map_readonly(
    const std::string& path) {
  return inner_->map_readonly(path);
}

void FaultyVfs::unmap(MappedRegion region) noexcept {
  inner_->unmap(region);
}

const FaultLedger& FaultyVfs::ledger() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_;
}

std::uint64_t FaultyVfs::op_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

void FaultyVfs::set_crash_at_op(std::uint64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_at_ = op;
  crashed_ = false;
}

void FaultyVfs::clear_crash_point() {
  std::lock_guard<std::mutex> lock(mu_);
  crash_at_.reset();
  crashed_ = false;
}

bool FaultyVfs::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

std::vector<std::string> FaultyVfs::apply_crash() {
  std::lock_guard<std::mutex> lock(mu_);
  crash_at_.reset();
  crashed_ = false;
  // Iterate in file-id (= first-open) order so the ledger is reproducible
  // across runs whose temp paths differ but whose open order matches.
  std::vector<std::pair<const std::string*, FileState*>> order;
  order.reserve(files_.size());
  for (auto& [path, st] : files_) order.emplace_back(&path, &st);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second->file_id < b.second->file_id;
  });

  std::vector<std::string> affected;
  const std::uint64_t block = plan_.params().crash_block_size;
  for (auto& [path, st] : order) {
    icn::store::VfsFile file;
    try {
      file = inner_->open(*path, OpenMode::kReadWrite);
    } catch (const icn::util::IoError&) {
      continue;  // Removed or never materialized — nothing at risk.
    }
    try {
      const std::uint64_t cur = inner_->size(file);
      const std::uint64_t synced = std::min(st->synced_size, cur);
      if (cur <= synced) {
        inner_->close(file);
        continue;
      }
      // Judge every block overlapping the unsynced tail [synced, cur).
      std::uint64_t highest = synced;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> zero_ranges;
      for (std::uint64_t b0 = synced / block * block; b0 < cur; b0 += block) {
        const std::uint64_t lo = std::max(b0, synced);
        const std::uint64_t hi = std::min(b0 + block, cur);
        if (lo >= hi) continue;
        switch (plan_.crash_block_fate(st->file_id, b0)) {
          case DiskFaultPlan::BlockFate::kSurvives:
            highest = std::max(highest, hi);
            break;
          case DiskFaultPlan::BlockFate::kTorn: {
            const std::uint64_t keep =
                plan_.crash_tear_keep(st->file_id, b0, hi - lo);
            if (keep > 0) highest = std::max(highest, lo + keep);
            if (keep < hi - lo) zero_ranges.emplace_back(lo + keep, hi);
            log(st->file_id, ops_, FaultKind::kCrashTear, b0, keep);
            break;
          }
          case DiskFaultPlan::BlockFate::kDropped:
            zero_ranges.emplace_back(lo, hi);
            log(st->file_id, ops_, FaultKind::kCrashDrop, b0, hi - lo);
            break;
        }
      }
      // Interior dropped/torn-away bytes below the highest survivor read
      // back as garbage on real hardware; zeros model that (and guarantee
      // the CRC walk stops at the first damaged section).
      const std::vector<std::uint8_t> zeros(
          static_cast<std::size_t>(block), 0);
      for (const auto& [lo, hi] : zero_ranges) {
        const std::uint64_t end = std::min(hi, highest);
        std::uint64_t at = lo;
        while (at < end) {
          const std::size_t chunk =
              static_cast<std::size_t>(std::min<std::uint64_t>(
                  end - at, zeros.size()));
          at += inner_->pwrite(file, {zeros.data(), chunk}, at);
        }
      }
      inner_->ftruncate(file, highest);
      inner_->fsync(file);
      inner_->close(file);
      log(st->file_id, ops_, FaultKind::kPowerCut, cur - synced,
          highest - synced);
      st->max_size = highest;
      st->synced_size = std::min(st->synced_size, highest);
      affected.push_back(*path);
    } catch (...) {
      try {
        inner_->close(file);
      } catch (...) {
      }
      throw;
    }
  }
  return affected;
}

}  // namespace icn::fault
