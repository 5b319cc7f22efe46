#ifndef PRIVATECLEAN_QUERY_VECTORIZED_H_
#define PRIVATECLEAN_QUERY_VECTORIZED_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "query/predicate.h"
#include "table/table.h"

namespace privateclean {

struct SqlExpr;

/// Rows per vectorized batch. Batches are the unit of the predicate→
/// aggregate pipeline: a batch mask lives in a stack buffer (1 KiB), so
/// an aggregate over S rows never materializes an S-byte mask. The size
/// is a constant — never a function of the thread count — so batch
/// boundaries, and therefore every floating-point accumulation order,
/// are identical at any parallelism.
inline constexpr size_t kVectorBatchRows = 1024;

/// A predicate compiled against one table for batch evaluation — the one
/// engine behind Predicate::Evaluate, ExecuteAggregate and the
/// two-attribute counts of core/conjunctive.h, which evaluate it at the
/// rows a row index names (EvalRows).
///
/// Compilation picks a per-column kernel:
///  - string columns: a code-indexed match table over the dictionary
///    (one boxed Matches call per *distinct* value; the row kernel is an
///    integer gather). This covers every predicate form, UDFs and
///    collapsed trees included.
///  - numeric columns: typed comparison / membership loops over the raw
///    int64/double arrays with the validity vector. A predicate collapsed
///    from a WHERE tree (Predicate::tree()) compiles that tree, under a
///    NOT node when negated. Only a caller-written Predicate::Udf falls
///    back to a boxed per-row kernel with a per-batch memo.
///  - SqlExpr trees: AND/OR/NOT combine child masks bytewise.
///
/// A CompiledPredicate borrows column storage from the table it was
/// compiled against: the table must outlive it and not be mutated while
/// it is in use. EvalBatch and EvalRows are const and thread-safe —
/// evaluation shards call them concurrently.
class CompiledPredicate {
 public:
  /// Matches every row (an absent WHERE clause).
  static CompiledPredicate True();

  static Result<CompiledPredicate> Compile(const Table& table,
                                           const Predicate& predicate);
  /// Compiles a full WHERE tree (multi-attribute allowed): leaves compile
  /// per-column, AND/OR/NOT combine masks.
  static Result<CompiledPredicate> Compile(const Table& table,
                                           const SqlExpr& expr);

  /// Writes the 0/1 match mask of rows [begin, begin+count) into
  /// mask[0..count). `count` must be <= kVectorBatchRows.
  void EvalBatch(size_t begin, size_t count, uint8_t* mask) const;

  /// Writes the 0/1 match mask of rows rows[0..count) into
  /// mask[0..count): EvalBatch's kernels over a list of row ids.
  /// `count` must be <= kVectorBatchRows.
  void EvalRows(const uint32_t* rows, size_t count, uint8_t* mask) const;

  /// Full row mask over `num_rows`, batched through the deterministic
  /// ParallelFor shards; identical at every thread count.
  Result<std::vector<uint8_t>> EvaluateAll(
      size_t num_rows, const ExecutionOptions& exec = {}) const;

 private:
  struct Node;

  CompiledPredicate() = default;
  explicit CompiledPredicate(std::shared_ptr<const Node> root)
      : root_(std::move(root)) {}

  /// Every kernel, once, over a row accessor: `row(i)` is the table row
  /// of the batch's i-th mask byte (begin + i for EvalBatch, rows[i] for
  /// EvalRows).
  template <typename RowAt>
  static void EvalNode(const Node& node, RowAt row, size_t count,
                       uint8_t* mask);

  std::shared_ptr<const Node> root_;  ///< nullptr: every row matches.
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_QUERY_VECTORIZED_H_
