#ifndef PRIVATECLEAN_COMMON_THREAD_POOL_H_
#define PRIVATECLEAN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace privateclean {

/// Execution knobs for parallelizable operations (GRR randomization,
/// predicate scans, conjunctive quadrant counts). Plumbed through
/// `GrrOptions` and `QueryOptions` down to `ParallelFor`.
///
/// Thread count never affects results: work is split into shards whose
/// layout depends only on the input size (see ShardCountForRows), and any
/// per-shard randomness is forked by shard index, so a fixed seed yields
/// bit-identical output at 1, 2, or 64 threads. A pass whose partials
/// merge exactly (counts, common/exact_sum.h sums) may instead give each
/// thread one contiguous range: there the split depends on the thread
/// count, the result cannot.
struct ExecutionOptions {
  /// Worker threads to use. 1 (the default) runs inline on the calling
  /// thread; 0 means "use the hardware concurrency".
  size_t num_threads = 1;

  /// `num_threads` with 0 resolved to the hardware concurrency (>= 1).
  size_t EffectiveThreads() const;
};

/// Fixed-size task-queue thread pool (Arrow-style: no exceptions; tasks
/// are void closures and report failure through out-of-band state).
///
/// Most callers never construct one: `ParallelFor` runs shards on the
/// shared `ThreadPool::Default()` pool and caps its own concurrency, so
/// independent operations can share the process's threads.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains nothing: pending tasks are completed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues `task` for execution on some worker thread.
  void Schedule(std::function<void()> task);

  /// Process-wide shared pool, lazily created with one worker per
  /// hardware thread. Never destroyed (intentionally leaked so tasks
  /// scheduled during static destruction cannot race teardown).
  static ThreadPool* Default();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

/// Rows per shard for row-partitioned parallel loops. The shard layout —
/// and therefore any shard-indexed RNG forking and per-shard merge order —
/// is a function of the item count alone, never of the thread count.
inline constexpr size_t kRowsPerShard = 16384;

/// Number of shards for `num_rows` items at the default granularity:
/// ceil(num_rows / kRowsPerShard), and at least 1.
size_t ShardCountForRows(size_t num_rows);

/// Bytes per chunk for byte-partitioned loops (CSV record framing). Like
/// kRowsPerShard, the chunk layout is a function of the byte count alone,
/// never of the thread count.
inline constexpr size_t kBytesPerSplitChunk = 64 * 1024;

/// Number of chunks for `num_bytes` bytes at `bytes_per_chunk` granularity
/// (0 picks kBytesPerSplitChunk): ceil(num_bytes / bytes_per_chunk), and at
/// least 1.
size_t ChunkCountForBytes(size_t num_bytes, size_t bytes_per_chunk = 0);

/// Shard-count cap for coarse-grained items, where one *item* is itself a
/// full pass over the data (e.g. one bootstrap replicate resampling all S
/// rows). Row-granularity sharding would put thousands of such items in
/// one shard; instead each item gets its own shard up to this cap, after
/// which items group into contiguous ranges so per-shard scratch buffers
/// amortize across the shard's items.
inline constexpr size_t kMaxCoarseShards = 64;

/// Number of shards for `num_items` coarse items:
/// min(num_items, kMaxCoarseShards), and at least 1. Like
/// ShardCountForRows, the result is a function of the item count alone —
/// never the thread count — so shard-indexed state stays deterministic.
size_t ShardCountForCoarseItems(size_t num_items);

/// Half-open item range [begin, end) of shard `shard` when `num_items`
/// items are split into `num_shards` contiguous, balanced shards.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
};
ShardRange ShardBounds(size_t num_items, size_t num_shards, size_t shard);

/// Runs `fn(shard, begin, end)` for every shard of [0, num_items) split
/// into `num_shards` contiguous ranges, using at most
/// `options.EffectiveThreads()` threads (borrowed from
/// `ThreadPool::Default()`; the calling thread participates).
///
/// Status-propagating: if any shard fails, the loop stops claiming new
/// shards and the failure with the lowest shard index among those that
/// ran is returned. Shards already in flight complete. With one thread
/// (the default) shards run inline in increasing index order.
Status ParallelFor(
    size_t num_items, size_t num_shards, const ExecutionOptions& options,
    const std::function<Status(size_t shard, size_t begin, size_t end)>& fn);

}  // namespace privateclean

#endif  // PRIVATECLEAN_COMMON_THREAD_POOL_H_
