#include "table/row_index.h"

#include <algorithm>
#include <limits>
#include <string>

namespace privateclean {

Result<RowIndex> BuildRowIndex(const ColumnCodes& codes,
                               const ExecutionOptions& exec) {
  const size_t rows = codes.size();
  if (rows > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("a row index holds 32-bit row ids; the "
                                   "column has " +
                                   std::to_string(rows) + " rows");
  }
  const size_t slots = codes.num_slots();
  const uint32_t* row_codes = codes.codes();
  const uint32_t null_slot = codes.null_slot();
  const size_t workers =
      std::min(exec.EffectiveThreads(), ShardCountForRows(rows));

  // next[w * stride + s]: first the rows of worker w's range in slot s,
  // then where worker w writes its next row of slot s. Both passes write
  // a worker's region on every row, so `stride` leaves at least 60 bytes
  // after each region's last word: wherever the vector starts, no 64-byte
  // cache line holds words of two workers.
  constexpr size_t kLineWords = 64 / sizeof(uint32_t);
  const size_t stride =
      (slots + 2 * kLineWords - 2) / kLineWords * kLineWords;
  std::vector<uint32_t> next(workers * stride, 0);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      rows, workers, exec,
      [&](size_t worker, size_t begin, size_t end) -> Status {
        uint32_t* count = &next[worker * stride];
        for (size_t r = begin; r < end; ++r) {
          ++count[std::min(row_codes[r], null_slot)];
        }
        return Status::OK();
      }));

  RowIndex index;
  index.offsets.resize(slots + 1);
  uint32_t start = 0;
  for (size_t s = 0; s < slots; ++s) {
    index.offsets[s] = start;
    for (size_t w = 0; w < workers; ++w) {
      const uint32_t n = next[w * stride + s];
      next[w * stride + s] = start;
      start += n;
    }
  }
  index.offsets[slots] = start;

  index.rows.resize(rows);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      rows, workers, exec,
      [&](size_t worker, size_t begin, size_t end) -> Status {
        uint32_t* at = &next[worker * stride];
        uint32_t* out = index.rows.data();
        for (size_t r = begin; r < end; ++r) {
          out[at[std::min(row_codes[r], null_slot)]++] =
              static_cast<uint32_t>(r);
        }
        return Status::OK();
      }));
  return index;
}

}  // namespace privateclean
