#ifndef PRIVATECLEAN_CORE_ESTIMATORS_H_
#define PRIVATECLEAN_CORE_ESTIMATORS_H_

#include "common/result.h"
#include "core/query_result.h"
#include "privacy/randomized_response.h"
#include "query/aggregate.h"

namespace privateclean {

/// Deterministic inputs to the PrivateClean estimators (paper §5.3):
/// known to the query processor, so they do not affect the statistical
/// properties of the estimate. Every estimator takes its transition
/// probabilities from ComputeTransitionProbabilities(p, l, n).
struct EstimationInputs {
  /// Replacement probability p_eff of the predicate's attribute
  /// (ReplacementProbability in privacy/mechanism.h): the stored p for
  /// the paper's GRR, N/(e^ε + N − 1) for hlm.
  double p = 0.0;
  double l = 0.0;   ///< Dirty-side selectivity (weighted cut; §6.3/§7.2).
  double n = 1.0;   ///< N, number of distinct dirty values.
  double b = 0.0;   ///< Laplace scale of the aggregated numeric attr.
  double confidence = 0.95;

  Status Validate() const;
};

/// COUNT estimator, Eq. 3:  ĉ = (c_private − S·τ_n) / (τ_p − τ_n),
/// with the CLT interval from §5.4 expressed in count units. For the
/// interval width the observed selectivity is clamped to
/// [1/(2S), 1 − 1/(2S)]: at the extremes the plug-in binomial variance
/// is identically zero and would yield a degenerate zero-width interval,
/// while the data only supports certainty up to O(1/S).
Result<QueryResult> EstimateCount(const QueryScanStats& stats,
                                  const EstimationInputs& in);

/// SUM estimator, Eq. 5 (complement-query trick, §5.5):
///   ĥ = ((1 − τ_n)·h_p − τ_n·h_p^c) / (τ_p − τ_n)
/// The interval follows §5.5, in sum units.
Result<QueryResult> EstimateSum(const QueryScanStats& stats,
                                const EstimationInputs& in);

/// AVG estimator (§5.6): avg = ĥ/ĉ (conditionally unbiased). ĉ, its
/// interval and the nominal average count only rows whose numeric value
/// is non-null (`total_non_null`, `matching_non_null`), as SQL's AVG
/// does. The interval is the conservative corner-ratio interval — upper
/// CI of ĥ over lower CI of ĉ and vice versa — exactly as the paper
/// prescribes. Errors with FailedPrecondition if every numeric value is
/// NULL or the count interval straddles zero.
Result<QueryResult> EstimateAvg(const QueryScanStats& stats,
                                const EstimationInputs& in);

}  // namespace privateclean

#endif  // PRIVATECLEAN_CORE_ESTIMATORS_H_
