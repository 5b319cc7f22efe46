#ifndef PRIVATECLEAN_CORE_QUERY_RESULT_H_
#define PRIVATECLEAN_CORE_QUERY_RESULT_H_

#include <cstddef>

#include "common/statistics.h"

namespace privateclean {

/// Which estimator produced a result.
enum class EstimatorKind {
  kDirect = 0,        ///< Nominal value read off the private relation.
  kPrivateClean = 1,  ///< Bias-corrected weighted estimate (this paper).
};

/// An estimated aggregate with its CLT confidence interval and the
/// deterministic quantities that parameterized the estimate — useful for
/// diagnostics and for the experiment harnesses.
struct QueryResult {
  double estimate = 0.0;
  ConfidenceInterval ci;
  double confidence = 0.95;  ///< Nominal coverage of `ci`.
  EstimatorKind estimator = EstimatorKind::kPrivateClean;

  // Diagnostics (paper §5.3/§6.3 parameters).
  double nominal = 0.0;  ///< Uncorrected value on the private relation.
  double p = 0.0;        ///< Discrete randomization probability.
  double l = 0.0;        ///< Dirty-side distinct-value selectivity.
  double n = 0.0;        ///< N, dirty domain size.
  size_t s = 0;          ///< S, relation size.

  // Bootstrap provenance (zero for non-bootstrap results). Degenerate
  // resamples (e.g. an empty selection) are dropped, so the interval may
  // rest on fewer replicates than requested; callers that care about
  // interval quality should compare the two.
  size_t replicates_requested = 0;  ///< Bootstrap replicates asked for.
  size_t replicates_effective = 0;  ///< Replicates the CI was computed on.
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_CORE_QUERY_RESULT_H_
