#ifndef PRIVATECLEAN_QUERY_AGGREGATE_H_
#define PRIVATECLEAN_QUERY_AGGREGATE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/exact_sum.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "query/predicate.h"
#include "query/vectorized.h"
#include "table/table.h"

namespace privateclean {

/// Supported aggregate functions. The paper's core class is
/// sum/count/avg (§3.2.2); median/percentile/var/std are the §10
/// extensions (Laplace noise has zero median, and its variance 2b² can be
/// subtracted from var). min/max exist for ground truth and the Direct
/// baseline only — extreme values are destroyed by randomization, so no
/// bias-corrected private estimator exists (the private entry points
/// reject them with a typed FailedPrecondition).
enum class AggregateType {
  kCount = 0,
  kSum = 1,
  kAvg = 2,
  kMedian = 3,
  kPercentile = 4,
  kVar = 5,
  kStd = 6,
  kMin = 7,
  kMax = 8,
};

const char* AggregateTypeToString(AggregateType agg);

/// `SELECT agg(numeric_attribute) FROM t WHERE predicate`.
///
/// `numeric_attribute` is ignored for kCount (SQL `count(1)`). A missing
/// predicate aggregates over the whole relation. `percentile` is only
/// meaningful for kPercentile.
struct AggregateQuery {
  AggregateType agg = AggregateType::kCount;
  std::string numeric_attribute;
  std::optional<Predicate> predicate;
  double percentile = 50.0;

  static AggregateQuery Count(std::optional<Predicate> pred = std::nullopt);
  static AggregateQuery Sum(std::string attr,
                            std::optional<Predicate> pred = std::nullopt);
  static AggregateQuery Avg(std::string attr,
                            std::optional<Predicate> pred = std::nullopt);
};

/// Executes the aggregate exactly on a (non-private) table. This is how
/// ground truth f(R_clean) is computed in the experiments, and also how
/// the Direct estimator reads nominal values off the private relation.
///
/// Null semantics: count counts rows (regardless of the numeric
/// attribute); sum skips null numeric entries; avg = sum of non-null
/// entries / count of predicate-matching rows with non-null numeric value.
/// Avg over a selection with zero (non-null) matching rows is a
/// FailedPrecondition, never 0 or NaN. A count with no predicate is the
/// row count, read without a pass.
///
/// The scan runs vectorized: each shard walks its rows in fixed-size
/// batches (kVectorBatchRows), evaluating the compiled predicate into a
/// stack mask and accumulating matching rows in row order. sum and avg
/// are the correctly rounded exact sum (common/exact_sum.h), the same
/// bits in any row order. The other per-shard partials (Welford moments,
/// min/max, value buffers) merge in shard index order, so every result —
/// including var/std and the median/percentile value order — is
/// bit-identical at every thread count (batch boundaries are
/// thread-count-independent).
Result<double> ExecuteAggregate(const Table& table,
                                const AggregateQuery& query,
                                const ExecutionOptions& exec = {});

/// Same, against an already-compiled predicate — how the SQL executors
/// run multi-attribute WHERE trees (compiled once, no Predicate
/// collapse). `query.predicate` is ignored; `predicate` supplies the
/// row mask.
Result<double> ExecuteAggregate(const Table& table,
                                const AggregateQuery& query,
                                const CompiledPredicate& predicate,
                                const ExecutionOptions& exec = {});

/// Moments of a numeric attribute over every non-null row of the
/// relation: the μ_p and σ_p² of the SUM/AVG confidence intervals (§5.5).
/// They do not depend on the predicate, so PrivateTable computes them
/// once per table state and caches them.
struct NumericMoments {
  double mean = 0.0;      ///< μ_p
  double variance = 0.0;  ///< σ_p² (population)
};

/// Computes NumericMoments of `numeric_attribute`: Welford moments per
/// row shard in row order, merged in shard index order, so the result is
/// identical at every thread count. InvalidArgument / NotFound when the
/// attribute is not a numeric column.
Result<NumericMoments> ComputeNumericMoments(
    const Table& table, const std::string& numeric_attribute,
    const ExecutionOptions& exec = {});

/// Everything the PrivateClean estimators need (Section 5): the nominal
/// count and sums under the predicate and its complement, plus moments
/// of the numeric attribute over the whole relation (for the confidence
/// intervals). The sums are correctly rounded exact sums
/// (common/exact_sum.h): a merge of cached per-value sums (ValueSums)
/// has the bits of a row scan.
struct QueryScanStats {
  size_t total_rows = 0;          ///< S
  size_t matching_rows = 0;       ///< nominal private count c_private
  double matching_sum = 0.0;      ///< h_private
  double complement_sum = 0.0;    ///< h_private^c
  double numeric_mean = 0.0;      ///< μ_p over all rows
  double numeric_variance = 0.0;  ///< σ_p² over all rows (population)
  /// AVG's count side: rows whose numeric value is non-null, in all and
  /// among the matching rows (equal to total_rows and matching_rows when
  /// the attribute has no NULL).
  size_t total_non_null = 0;
  size_t matching_non_null = 0;
};

/// Exact sums of a numeric attribute per value of a discrete attribute
/// of any type: one entry per ColumnCodes slot of the key column
/// (table/domain.h) — a code per distinct value (each NaN row's value
/// its own), then NULL — each the exact sum (and count) of the non-null
/// numeric values on its rows, plus the same over every row. Any
/// predicate on the key attribute matches a set of values, so its h_p is
/// the merge of their slots and its complement is total − h_p, exactly:
/// the bits of a row scan without a row pass.
struct ValueSums {
  PackedExactSums sums;
  ExactSum total;

  size_t MemoryBytes() const { return sums.MemoryBytes() + sizeof(*this); }
};

/// Builds ValueSums in one pass over (slot, value). Exact merges commute,
/// so each worker of `exec` sums one contiguous row range into one
/// partial and the partials merge once. InvalidArgument / NotFound when
/// `key_attribute` is not a column or `numeric_attribute` not a numeric
/// one.
Result<ValueSums> ComputeValueSums(const Table& table,
                                   const std::string& key_attribute,
                                   const std::string& numeric_attribute,
                                   const ExecutionOptions& exec = {});

/// `SELECT group, count(1) FROM t GROUP BY group_attribute` — used by the
/// TPC-DS experiment (§8.3.4). Keys are the boxed group values, so a
/// NULL group gets its own bucket (Value::Null()) and can never collide
/// with a genuine empty-string group; render keys with RenderSqlLiteral
/// (query/sql.h) for unambiguous display. A non-empty `mask` (one byte
/// per row, 1 = counted) restricts the count to the rows it selects.
Result<std::map<Value, size_t>> GroupByCount(
    const Table& table, const std::string& group_attribute,
    const std::vector<uint8_t>& mask = {});

}  // namespace privateclean

#endif  // PRIVATECLEAN_QUERY_AGGREGATE_H_
