// Outside-in store measurement: a store::Vfs decorator that forwards every
// call to an inner Vfs (store::posix_vfs() by default) and counts and times
// the durability-relevant ones. Passed through SupervisorParams::vfs,
// stream::merge_snapshots and stream::write_merged_snapshot, it yields the
// store.* per-layer numbers without a probe inside src/.
#pragma once

#include <cstdint>

#include "store/vfs.h"

namespace perfbench {

struct StoreCounters {
  std::uint64_t write_calls = 0;  ///< write() + pwrite().
  std::uint64_t bytes_written = 0;
  double write_s = 0.0;
  std::uint64_t fsyncs = 0;       ///< File fsyncs.
  double fsync_s = 0.0;
  std::uint64_t dir_fsyncs = 0;   ///< Parent-directory fsyncs.
  double map_s = 0.0;             ///< map_readonly().
};

class CountingVfs final : public icn::store::Vfs {
 public:
  explicit CountingVfs(icn::store::Vfs& inner) : inner_(inner) {}

  /// Counters accumulated so far. The decorator is driven from one thread
  /// (the supervisor and merge run single-threaded); read after it is done.
  [[nodiscard]] const StoreCounters& counters() const { return counters_; }
  void reset() { counters_ = {}; }

  [[nodiscard]] icn::store::VfsFile open(const std::string& path,
                                         OpenMode mode) override;
  std::size_t write(icn::store::VfsFile& file,
                    std::span<const std::uint8_t> bytes) override;
  std::size_t pread(icn::store::VfsFile& file, std::span<std::uint8_t> out,
                    std::uint64_t offset) override;
  std::size_t pwrite(icn::store::VfsFile& file,
                     std::span<const std::uint8_t> bytes,
                     std::uint64_t offset) override;
  void fsync(icn::store::VfsFile& file) override;
  void ftruncate(icn::store::VfsFile& file, std::uint64_t size) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) override;
  [[nodiscard]] std::uint64_t size(icn::store::VfsFile& file) override;
  void close(icn::store::VfsFile& file) override;
  void fsync_parent_dir(const std::string& path) override;
  [[nodiscard]] MappedRegion map_readonly(const std::string& path) override;
  void unmap(MappedRegion region) noexcept override;

 private:
  icn::store::Vfs& inner_;
  StoreCounters counters_;
};

}  // namespace perfbench
