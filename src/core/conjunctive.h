#ifndef PRIVATECLEAN_CORE_CONJUNCTIVE_H_
#define PRIVATECLEAN_CORE_CONJUNCTIVE_H_

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/estimators.h"
#include "query/predicate.h"
#include "table/row_index.h"
#include "table/table.h"

namespace privateclean {

/// §10 extension ("Aggregates over Select-Project-Join Views"): COUNT
/// with a conjunctive predicate over *two different* discrete
/// attributes,
///
///   SELECT count(1) FROM R WHERE cond_a(d_a) AND cond_b(d_b)
///
/// GRR randomizes the attributes independently, so the joint
/// observation is governed by the Kronecker product of the two
/// per-attribute 2×2 transition matrices; inverting it (the inverse of a
/// Kronecker product is the Kronecker product of the inverses) yields an
/// unbiased estimate of the true quadrant counts.

/// Quadrant counts for the pair (cond_a, cond_b) over the cleaned
/// private relation.
struct ConjunctiveScanStats {
  size_t total_rows = 0;
  size_t count_tt = 0;  ///< a true,  b true (the target quadrant)
  size_t count_tf = 0;  ///< a true,  b false
  size_t count_ft = 0;  ///< a false, b true
  size_t count_ff = 0;  ///< a false, b false
};

/// Counts the rows of `table` that match both `cond_a` and `cond_b` (two
/// different attributes) — count_tt — without visiting every row.
/// `index_a` / `index_b` is the RowIndex (table/row_index.h) of that
/// side's attribute, or nullptr where the attribute is not discrete; at
/// least one side needs one. Each indexed side's predicate is evaluated
/// at one row per slot to find its matched slots; the indexed side whose
/// matched slots hold fewer rows drives, and the other side is evaluated
/// only at the driving rows (CompiledPredicate::EvalRows), split over
/// `exec`'s workers. A non-null `rows_a` / `rows_b` receives the rows
/// matching that side alone, which needs its index. Counts are exact, so
/// nothing depends on the thread count.
Result<size_t> CountMatchingBoth(const Table& table, const Predicate& cond_a,
                                 const RowIndex* index_a,
                                 const Predicate& cond_b,
                                 const RowIndex* index_b,
                                 const ExecutionOptions& exec = {},
                                 size_t* rows_a = nullptr,
                                 size_t* rows_b = nullptr);

/// All four quadrants from CountMatchingBoth over two discrete sides:
/// tf, ft and ff follow from count_tt and each side's matching rows.
Result<ConjunctiveScanStats> CountConjunctiveQuadrants(
    const Table& table, const Predicate& cond_a, const RowIndex& index_a,
    const Predicate& cond_b, const RowIndex& index_b,
    const ExecutionOptions& exec = {});

/// Solves the 4×4 linear system (M_a ⊗ M_b)·q_true = q_observed for the
/// true quadrant counts and returns the corrected count of rows
/// satisfying both predicates, with a CLT interval. `in_a`/`in_b` carry
/// each attribute's (p, l, N) — provenance-adjusted when cleaning
/// happened, exactly as for single-predicate estimation.
Result<QueryResult> EstimateConjunctiveCount(
    const ConjunctiveScanStats& stats, const EstimationInputs& in_a,
    const EstimationInputs& in_b);

}  // namespace privateclean

#endif  // PRIVATECLEAN_CORE_CONJUNCTIVE_H_
