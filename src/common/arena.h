#ifndef PRIVATECLEAN_COMMON_ARENA_H_
#define PRIVATECLEAN_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace privateclean {

/// Chunked bump allocator for table construction: string dictionary
/// bytes, scratch buffers, and other allocations whose lifetime matches
/// the owning table. Pointers returned by Allocate/CopyString are stable
/// for the arena's lifetime (chunks are never reallocated or compacted),
/// which is what lets StringDictionary hand out `string_view`s into the
/// arena as the canonical value representation.
///
/// Thread-safety: an Arena is single-writer. Concurrent readers of
/// previously returned pointers are safe; concurrent Allocate calls are
/// not.
class Arena {
 public:
  Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&& other) noexcept { *this = std::move(other); }
  Arena& operator=(Arena&& other) noexcept;

  /// Returns `size` bytes aligned to `align` (a power of two). size == 0
  /// returns a non-null pointer.
  void* Allocate(size_t size, size_t align = alignof(std::max_align_t));

  /// Copies `s` into the arena and returns a view of the stable copy.
  std::string_view CopyString(std::string_view s);

  /// Frees every chunk and returns the arena to its freshly-constructed
  /// state. Previously returned pointers are invalidated.
  void Reset();

  /// Requested bytes currently live in this arena.
  size_t bytes_used() const { return bytes_used_; }
  /// Chunk bytes currently held from the system allocator.
  size_t bytes_reserved() const { return bytes_reserved_; }
  /// Allocation calls served by this arena.
  size_t alloc_count() const { return alloc_count_; }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  static constexpr size_t kMinChunkBytes = 4096;
  static constexpr size_t kMaxChunkBytes = size_t{1} << 20;

  char* AllocateSlow(size_t size, size_t align);

  std::vector<Chunk> chunks_;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
  size_t alloc_count_ = 0;
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_COMMON_ARENA_H_
