#ifndef PRIVATECLEAN_TABLE_ROW_INDEX_H_
#define PRIVATECLEAN_TABLE_ROW_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "table/domain.h"

namespace privateclean {

/// The rows of a discrete column grouped by value: every row id once,
/// ordered by ColumnCodes slot (table/domain.h) and ascending within a
/// slot, with per-slot offsets — slot s holds rows[offsets[s]] up to
/// rows[offsets[s + 1]]. A predicate on the column is value-deterministic,
/// so evaluating it at one row per non-empty slot (rows[offsets[s]])
/// finds the slots it matches, and their ranges are exactly its matching
/// rows. 4 B per row plus 4 B per slot.
struct RowIndex {
  std::vector<uint32_t> rows;
  std::vector<uint32_t> offsets;  ///< One per slot, then the row count.

  size_t num_slots() const { return offsets.size() - 1; }
};

/// Builds the RowIndex of the column behind `codes` by one counting sort:
/// each worker of `exec` counts the slots of one contiguous row range,
/// the start of every (slot, worker) pair follows from those counts in
/// (slot, worker) order, and each worker scatters its rows to its starts.
/// Worker ranges ascend, so rows ascend within a slot and the index has
/// the same bytes at every thread count. InvalidArgument when the column
/// has 2^32 rows or more (row ids are 32-bit).
Result<RowIndex> BuildRowIndex(const ColumnCodes& codes,
                               const ExecutionOptions& exec = {});

}  // namespace privateclean

#endif  // PRIVATECLEAN_TABLE_ROW_INDEX_H_
