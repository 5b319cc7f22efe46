#ifndef PRIVATECLEAN_SERVER_RELEASE_CACHE_H_
#define PRIVATECLEAN_SERVER_RELEASE_CACHE_H_

#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/private_table.h"

namespace privateclean {
namespace server {

/// One release opened for serving: the analyst-side PrivateTable plus
/// the identity a session binds to. Immutable once constructed — the
/// server never cleans or mutates a shared table, and
/// PrivateTable::WarmCaches runs at open time: it builds the provenance
/// graph of every discrete attribute and the moments (μ_p, σ_p²) of
/// every numeric column, which SUM/AVG would otherwise compute on first
/// use. Concurrent read-only queries on the one instance therefore only
/// read the table's caches and never race on filling them; the cache
/// entries live until the table does (only Clean() drops them).
struct OpenedRelease {
  std::string dir;
  PrivateTable table;
  /// The MANIFEST `relation:` name the release answers to.
  std::string relation;

  OpenedRelease(std::string dir, PrivateTable table, std::string relation)
      : dir(std::move(dir)),
        table(std::move(table)),
        relation(std::move(relation)) {}
};

/// Refcounted cache of opened releases, keyed by directory.
///
/// N sessions binding the same release share one dictionary-encoded
/// table: Acquire returns a shared_ptr, and the cache holds only a
/// weak_ptr, so a release stays in memory exactly as long as someone
/// (the server's configured set, or a bound session) holds it. When the
/// last reference drops the entry expires and a later Acquire re-opens
/// the directory — release directories are immutable once published
/// (atomic-rename commit), so a re-open observes the same bytes.
///
/// Thread-safe; Acquire may be called concurrently.
class ReleaseCache {
 public:
  /// `exec` shards the open-time CSV parse and the cache warm-up; the
  /// resulting table is identical at every thread count.
  explicit ReleaseCache(const ExecutionOptions& exec = {}) : exec_(exec) {}

  /// Opens (or shares) the release at `dir`. Typed failures are exactly
  /// OpenRelease's (NotFound / DataLoss / IOError / FailedPrecondition).
  Result<std::shared_ptr<const OpenedRelease>> Acquire(
      const std::string& dir);

  /// Live (non-expired) entries — how many distinct releases are
  /// currently shared. Exposed for tests and the server's drain log.
  size_t live() const;

  /// Total directory opens performed (cache misses); a second Acquire of
  /// a live entry does not increment it.
  uint64_t opens() const;

 private:
  ExecutionOptions exec_;
  mutable std::mutex mu_;
  std::map<std::string, std::weak_ptr<const OpenedRelease>> entries_;
  uint64_t opens_ = 0;
};

}  // namespace server
}  // namespace privateclean

#endif  // PRIVATECLEAN_SERVER_RELEASE_CACHE_H_
