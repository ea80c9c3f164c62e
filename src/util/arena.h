// Monotonic per-task scratch arena.
//
// The analysis batch paths (seasonal-fit buckets, kernel-SHAP coalition
// rows) used to heap-allocate small short-lived vectors once per item —
// millions of malloc/free pairs per study that dominate the profile once the
// arithmetic itself is vectorized. An Arena replaces those with pointer
// bumps: allocation is `used += bytes`, deallocation is rewinding a mark.
//
// Lifetime rules (see DESIGN.md §6.4):
//   - Allocation never constructs or destroys objects. Only trivially
//     copyable, trivially destructible element types are accepted
//     (`alloc<T>` is constrained accordingly); callers initialise the
//     returned storage themselves.
//   - A `Frame` (RAII) marks the arena on entry and rewinds it on exit.
//     Everything allocated inside the frame dies at once; pointers must not
//     escape the frame that allocated them.
//   - Arenas are single-threaded. `scratch_arena()` hands each thread its
//     own `thread_local` instance, so pool workers never contend; a worker's
//     task body opens a Frame, allocates freely, and the rewind at task exit
//     makes the next task on that worker start from the same high-water
//     block — steady-state tasks do zero mallocs.
//   - Memory is retained across rewinds (monotonic high-water mark) and only
//     returned to the OS when the Arena itself is destroyed, i.e. at thread
//     exit for `scratch_arena()`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace icn::util {

class Arena {
 public:
  /// First block size; subsequent blocks grow geometrically (2x) and at
  /// least large enough for the allocation that triggered them.
  explicit Arena(std::size_t initial_block_bytes = 1u << 16);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw bump allocation. `align` must be a power of two. Never returns
  /// nullptr (zero-byte requests get a valid one-past pointer).
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align);

  /// Typed allocation of `count` elements of uninitialised storage.
  template <typename T>
    requires(std::is_trivially_copyable_v<T> &&
             std::is_trivially_destructible_v<T>)
  [[nodiscard]] T* alloc(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Typed allocation returned as a span over uninitialised storage.
  template <typename T>
    requires(std::is_trivially_copyable_v<T> &&
             std::is_trivially_destructible_v<T>)
  [[nodiscard]] std::span<T> alloc_span(std::size_t count) {
    return {alloc<T>(count), count};
  }

  /// Rewind marker: (block index, bytes used in that block). Rewinding
  /// invalidates every pointer handed out after the mark was taken.
  struct Mark {
    std::size_t block = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] Mark mark() const { return {current_, blocks_.empty() ? 0 : blocks_[current_].used}; }

  void rewind(Mark m);

  /// Rewind to empty. Blocks are kept for reuse.
  void reset() { rewind(Mark{0, 0}); }

  /// Total bytes currently reserved from the OS across all blocks.
  [[nodiscard]] std::size_t bytes_reserved() const;

  /// Bytes handed out since the last full reset (high-water view of the
  /// current position, not a lifetime counter).
  [[nodiscard]] std::size_t bytes_used() const;

  /// RAII frame: rewinds the owning arena to the construction-time mark.
  class Frame {
   public:
    explicit Frame(Arena& arena) : arena_(&arena), mark_(arena.mark()) {}
    ~Frame() { arena_->rewind(mark_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Arena* arena_;
    Mark mark_;
  };

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  void* allocate_slow(std::size_t bytes, std::size_t align);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;
  std::size_t initial_block_bytes_;
};

/// This thread's scratch arena. Each pool worker (and the main thread) gets
/// its own instance, so no locking is needed; open a Frame per task.
[[nodiscard]] Arena& scratch_arena();

}  // namespace icn::util
