#ifndef PRIVATECLEAN_PRIVACY_LAPLACE_MECHANISM_H_
#define PRIVATECLEAN_PRIVACY_LAPLACE_MECHANISM_H_

#include "common/random.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "table/column.h"
#include "table/table.h"

namespace privateclean {

/// Laplace mechanism for a numerical attribute (paper §4.2.2):
/// r'[a] = r[a] + Laplace(0, b). Null entries stay null.
///
/// Double columns receive real-valued noise. Int64 columns receive
/// rounded noise (round(x + Laplace(0, b))): rounding is deterministic
/// post-processing of an ε-DP output, so privacy is preserved
/// (Dwork & Roth Prop. 2.1), and by the symmetry of the Laplace
/// distribution the rounded noise remains zero-mean, which is all the
/// estimators rely on.
///
/// Requires a finite b >= 0 (b == 0 is a no-op, meaning no privacy); a
/// NaN, infinite or negative b is InvalidArgument.
Status ApplyLaplaceMechanism(Column* column, double b, Rng& rng);

/// Row-range kernel of the Laplace mechanism, for sharded execution
/// (common/thread_pool.h): noises rows [begin, end) drawing from `rng`.
/// Kernels over disjoint ranges may run concurrently on one column; the
/// validity vector is only read, so no null-count fixup is needed.
Status ApplyLaplaceMechanismShard(Column* column, double b, Rng& rng,
                                  size_t begin, size_t end);

/// Sensitivity Δ of a numerical column: max − min over non-null entries
/// (paper Proposition 1). A NaN is skipped like a NULL, wherever it sits.
/// FailedPrecondition if no entry is left; InvalidArgument if one is
/// infinite, since no finite noise scale covers an infinite Δ.
///
/// The reduction is sharded per `exec` (common/thread_pool.h) with
/// per-shard min/max partials merged in shard index order, so the result
/// is identical at every thread count.
Result<double> ColumnSensitivity(const Column& column,
                                 const ExecutionOptions& exec = {});

/// ColumnSensitivity of attribute `i` of `table`, with the attribute named
/// in any error.
Result<double> AttributeSensitivity(const Table& table, size_t i,
                                    const ExecutionOptions& exec = {});

}  // namespace privateclean

#endif  // PRIVATECLEAN_PRIVACY_LAPLACE_MECHANISM_H_
