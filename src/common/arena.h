#ifndef PRIVATECLEAN_COMMON_ARENA_H_
#define PRIVATECLEAN_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace privateclean {

namespace internal {
struct ArenaSiteCounters;  // Registry node; defined in arena.cc.
}  // namespace internal

/// Aggregate allocation counters for one arena call site (the `site` tag
/// passed to the Arena constructor). All counters are cumulative across
/// every arena created with the tag; `live_bytes` drops when an arena is
/// destroyed or Reset, and `peak_live_bytes` records the high-water mark.
struct ArenaSiteStats {
  std::string site;
  uint64_t alloc_calls = 0;      ///< Number of Allocate/CopyString calls.
  uint64_t alloc_bytes = 0;      ///< Sum of requested bytes (pre-rounding).
  uint64_t reserved_bytes = 0;   ///< Chunk bytes currently held from malloc.
  uint64_t live_bytes = 0;       ///< Requested bytes currently live.
  uint64_t peak_live_bytes = 0;  ///< High-water mark of live_bytes.
};

/// Process-wide registry of per-call-site arena statistics, in the style
/// of a malloc-shim profiler: every Arena registers under its `site` tag
/// and streams its allocation traffic into the tag's counters, read on
/// demand through Snapshot() and Totals().
class ArenaProfiler {
 public:
  /// Stats for every site that has ever allocated, sorted by site name
  /// (deterministic output for goldens and bench JSON).
  static std::vector<ArenaSiteStats> Snapshot();

  /// Sum over all sites. Per-site peaks need not coincide in time, so
  /// the summed peak is an upper bound on the true process peak.
  static ArenaSiteStats Totals();

  /// Stats for one site; zeroes if the site never allocated.
  static ArenaSiteStats ForSite(std::string_view site);
};

/// Chunked bump allocator for table construction: string dictionary
/// bytes, scratch buffers, and other allocations whose lifetime matches
/// the owning table. Pointers returned by Allocate/CopyString are stable
/// for the arena's lifetime (chunks are never reallocated or compacted),
/// which is what lets StringDictionary hand out `string_view`s into the
/// arena as the canonical value representation.
///
/// Thread-safety: an Arena is single-writer. Concurrent readers of
/// previously returned pointers are safe; concurrent Allocate calls are
/// not. The profiler counters behind it are atomic, so arenas tagged
/// with the same site may allocate from different threads.
class Arena {
 public:
  /// `site` tags this arena's traffic in the ArenaProfiler. Registration
  /// interns the tag, so dynamic strings are fine.
  explicit Arena(const char* site);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&& other) noexcept;
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
  void ReleaseAccounting();

  internal::ArenaSiteCounters* counters_;  // Owned by the registry.
  std::vector<Chunk> chunks_;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
  size_t alloc_count_ = 0;
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_COMMON_ARENA_H_
