#include "core/estimators.h"

#include <algorithm>
#include <cmath>

#include "privacy/randomized_response.h"

namespace privateclean {

Status EstimationInputs::Validate() const {
  if (!(p >= 0.0 && p < 1.0)) {
    return Status::InvalidArgument(
        "estimation requires p in [0, 1); p == 1 destroys all signal");
  }
  if (!(n >= 1.0)) return Status::InvalidArgument("N must be >= 1");
  if (!(l >= 0.0 && l <= n)) {
    return Status::InvalidArgument("l must be in [0, N]");
  }
  if (b < 0.0) return Status::InvalidArgument("b must be >= 0");
  if (!(confidence > 0.0 && confidence < 1.0)) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  return Status::OK();
}

namespace {

/// Fills the shared diagnostic fields.
void FillDiagnostics(QueryResult* r, const QueryScanStats& stats,
                     const EstimationInputs& in, double nominal) {
  r->confidence = in.confidence;
  r->nominal = nominal;
  r->p = in.p;
  r->l = in.l;
  r->n = in.n;
  r->s = stats.total_rows;
}

}  // namespace

Result<QueryResult> EstimateCount(const QueryScanStats& stats,
                                  const EstimationInputs& in) {
  PCLEAN_RETURN_NOT_OK(in.Validate());
  if (stats.total_rows == 0) {
    return Status::InvalidArgument("cannot estimate over an empty relation");
  }
  PCLEAN_ASSIGN_OR_RETURN(TransitionProbabilities t,
                          ComputeTransitionProbabilities(in.p, in.l, in.n));
  double s = static_cast<double>(stats.total_rows);
  double c_private = static_cast<double>(stats.matching_rows);

  // Eq. 3. Note τ_p − τ_n = 1 − p exactly.
  double denom = t.true_positive - t.false_positive;
  double estimate = (c_private - s * t.false_positive) / denom;

  // CLT interval (§5.4): s_p is Binomial(S, ·)/S, so
  // sd(ĉ) = sqrt(S·s_p(1−s_p)) / (1−p). (The paper states the interval
  // in selectivity units; multiplying by S gives count units.)
  //
  // At observed selectivity exactly 0 or 1 the plug-in variance
  // vanishes and the interval degenerates to a point, which overstates
  // certainty: a relation where no private row matched still only
  // bounds the true selectivity to O(1/S). Clamp s_p to
  // [1/(2S), 1 − 1/(2S)] — half an observation — for the width
  // computation only, so the interval always reflects at least that
  // residual binomial uncertainty.
  double s_p = c_private / s;
  double s_p_floor = 0.5 / s;
  double s_p_ci = std::clamp(s_p, s_p_floor, 1.0 - s_p_floor);
  PCLEAN_ASSIGN_OR_RETURN(double z, ZScoreForConfidence(in.confidence));
  double half = z / denom * std::sqrt(s * s_p_ci * (1.0 - s_p_ci));

  QueryResult result;
  result.estimator = EstimatorKind::kPrivateClean;
  result.estimate = estimate;
  result.ci = ConfidenceInterval{estimate - half, estimate + half};
  FillDiagnostics(&result, stats, in, c_private);
  return result;
}

Result<QueryResult> EstimateSum(const QueryScanStats& stats,
                                const EstimationInputs& in) {
  PCLEAN_RETURN_NOT_OK(in.Validate());
  if (stats.total_rows == 0) {
    return Status::InvalidArgument("cannot estimate over an empty relation");
  }
  PCLEAN_ASSIGN_OR_RETURN(TransitionProbabilities t,
                          ComputeTransitionProbabilities(in.p, in.l, in.n));
  double denom = t.true_positive - t.false_positive;  // == 1 − p.

  // Eq. 5 / Appendix C closed form. At τ_n = 0 (p = 0) the complement
  // term weighs nothing and adds nothing, even when h_p^c is ±inf or NaN
  // (where 0·h_p^c would be NaN).
  const double complement_term =
      t.false_positive == 0.0 ? 0.0
                              : t.false_positive * stats.complement_sum;
  double estimate =
      ((1.0 - t.false_positive) * stats.matching_sum - complement_term) /
      denom;

  // Interval (§5.5): bound via the moments of the private numeric
  // attribute. sd(h_p) <= sqrt(S·(s_p(1−s_p)·μ_p² + σ_p²)); the paper
  // applies the factor 2 to cover h_p + h_p^c, and the weights sum to
  // 1/(1−p).
  double s = static_cast<double>(stats.total_rows);
  double s_p = static_cast<double>(stats.matching_rows) / s;
  double mu_p = stats.numeric_mean;
  double var_p = stats.numeric_variance;
  PCLEAN_ASSIGN_OR_RETURN(double z, ZScoreForConfidence(in.confidence));
  double half = 2.0 * z / denom *
                std::sqrt(s * (s_p * (1.0 - s_p) * mu_p * mu_p + var_p));

  QueryResult result;
  result.estimator = EstimatorKind::kPrivateClean;
  result.estimate = estimate;
  result.ci = ConfidenceInterval{estimate - half, estimate + half};
  FillDiagnostics(&result, stats, in, stats.matching_sum);
  return result;
}

Result<QueryResult> EstimateAvg(const QueryScanStats& stats,
                                const EstimationInputs& in) {
  PCLEAN_ASSIGN_OR_RETURN(QueryResult sum, EstimateSum(stats, in));
  if (stats.total_non_null == 0) {
    return Status::FailedPrecondition(
        "avg undefined: every value of the attribute is NULL");
  }
  // The count side counts the rows AVG divides by: those with a value.
  QueryScanStats counted = stats;
  counted.total_rows = stats.total_non_null;
  counted.matching_rows = stats.matching_non_null;
  PCLEAN_ASSIGN_OR_RETURN(QueryResult count, EstimateCount(counted, in));
  if (count.estimate == 0.0) {
    return Status::FailedPrecondition("avg undefined: estimated count is 0");
  }
  QueryResult result;
  result.estimator = EstimatorKind::kPrivateClean;
  result.estimate = sum.estimate / count.estimate;

  // Conservative corner-ratio interval (§5.6): upper CI of ĥ over lower
  // CI of ĉ, and vice versa. Only well defined when the count interval
  // does not straddle zero.
  double c_lo = count.ci.lo;
  double c_hi = count.ci.hi;
  if (c_lo <= 0.0 && c_hi >= 0.0) {
    return Status::FailedPrecondition(
        "avg interval undefined: count interval straddles zero "
        "(relation too small or privacy too high for this predicate)");
  }
  double corners[4] = {sum.ci.lo / c_lo, sum.ci.lo / c_hi,
                       sum.ci.hi / c_lo, sum.ci.hi / c_hi};
  result.ci = ConfidenceInterval{*std::min_element(corners, corners + 4),
                                 *std::max_element(corners, corners + 4)};
  double nominal_count = static_cast<double>(stats.matching_non_null);
  FillDiagnostics(&result, stats, in,
                  nominal_count > 0.0 ? stats.matching_sum / nominal_count
                                      : 0.0);
  return result;
}

}  // namespace privateclean
