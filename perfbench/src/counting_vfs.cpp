#include "counting_vfs.h"

#include "common.h"

namespace perfbench {

using icn::store::VfsFile;

VfsFile CountingVfs::open(const std::string& path, OpenMode mode) {
  return inner_.open(path, mode);
}

std::size_t CountingVfs::write(VfsFile& file,
                               std::span<const std::uint8_t> bytes) {
  const double t0 = now_s();
  const std::size_t n = inner_.write(file, bytes);
  counters_.write_s += now_s() - t0;
  ++counters_.write_calls;
  counters_.bytes_written += n;
  return n;
}

std::size_t CountingVfs::pread(VfsFile& file, std::span<std::uint8_t> out,
                               std::uint64_t offset) {
  return inner_.pread(file, out, offset);
}

std::size_t CountingVfs::pwrite(VfsFile& file,
                                std::span<const std::uint8_t> bytes,
                                std::uint64_t offset) {
  const double t0 = now_s();
  const std::size_t n = inner_.pwrite(file, bytes, offset);
  counters_.write_s += now_s() - t0;
  ++counters_.write_calls;
  counters_.bytes_written += n;
  return n;
}

void CountingVfs::fsync(VfsFile& file) {
  const double t0 = now_s();
  inner_.fsync(file);
  counters_.fsync_s += now_s() - t0;
  ++counters_.fsyncs;
}

void CountingVfs::ftruncate(VfsFile& file, std::uint64_t size) {
  inner_.ftruncate(file, size);
}

void CountingVfs::truncate(const std::string& path, std::uint64_t size) {
  inner_.truncate(path, size);
}

void CountingVfs::rename(const std::string& from, const std::string& to) {
  inner_.rename(from, to);
}

void CountingVfs::remove(const std::string& path) { inner_.remove(path); }

std::uint64_t CountingVfs::size(VfsFile& file) { return inner_.size(file); }

void CountingVfs::close(VfsFile& file) { inner_.close(file); }

void CountingVfs::fsync_parent_dir(const std::string& path) {
  const double t0 = now_s();
  inner_.fsync_parent_dir(path);
  counters_.fsync_s += now_s() - t0;
  ++counters_.dir_fsyncs;
}

icn::store::Vfs::MappedRegion CountingVfs::map_readonly(
    const std::string& path) {
  const double t0 = now_s();
  const MappedRegion region = inner_.map_readonly(path);
  counters_.map_s += now_s() - t0;
  return region;
}

void CountingVfs::unmap(MappedRegion region) noexcept { inner_.unmap(region); }

}  // namespace perfbench
