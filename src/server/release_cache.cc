#include "server/release_cache.h"

#include "core/release.h"

namespace privateclean {
namespace server {

Result<std::shared_ptr<const OpenedRelease>> ReleaseCache::Acquire(
    const std::string& dir) {
  // The lock spans the open: two sessions racing to bind the same cold
  // release wait on one open instead of parsing the directory twice.
  // Opens happen at session bind (rare next to queries), so serializing
  // them is the simple correct choice.
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = entries_.find(dir); it != entries_.end()) {
    if (auto shared = it->second.lock()) return shared;
  }
  PCLEAN_ASSIGN_OR_RETURN(PrivateTable table, OpenRelease(dir, exec_));
  // PrivateTable fills its caches lazily under no lock, so a shared
  // table must have every entry a read-only query can reach built before
  // the first concurrent session touches it.
  PCLEAN_RETURN_NOT_OK(table.WarmCaches(exec_));
  std::string relation = table.metadata().relation_name;
  auto shared = std::make_shared<const OpenedRelease>(dir, std::move(table),
                                                      std::move(relation));
  entries_[dir] = shared;
  ++opens_;
  return std::shared_ptr<const OpenedRelease>(shared);
}

size_t ReleaseCache::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t live = 0;
  for (const auto& [dir, weak] : entries_) {
    if (!weak.expired()) ++live;
  }
  return live;
}

uint64_t ReleaseCache::opens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opens_;
}

}  // namespace server
}  // namespace privateclean
