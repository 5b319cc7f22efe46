#ifndef PRIVATECLEAN_PRIVACY_ACCOUNTANT_H_
#define PRIVATECLEAN_PRIVACY_ACCOUNTANT_H_

#include <map>
#include <string>

#include "common/result.h"
#include "privacy/grr.h"

namespace privateclean {

/// ε accounting for a privatized relation (paper Theorem 1):
/// the relation is ε-locally-differentially-private with
/// ε = Σ_i ε_{d_i} + Σ_j ε_{a_j}, where ε_{d_i} is the discrete
/// attribute's DiscreteEpsilon (privacy/mechanism.h; ln(3/p_i − 2) for
/// the paper's GRR) and ε_{a_j} = Δ_j / b_j. Post-processing (cleaning)
/// never increases ε.
struct PrivacyReport {
  /// Per-attribute ε, keyed by attribute name. +inf entries flag
  /// non-private attributes (p == 0 or b == 0).
  std::map<std::string, double> per_attribute_epsilon;
  /// Total ε by the composition theorem.
  double total_epsilon = 0.0;
  /// True iff every attribute has finite ε.
  bool fully_private = true;
};

/// Builds the ε report for the metadata produced by ApplyGrr.
Result<PrivacyReport> AccountPrivacy(const PrivateRelationMetadata& metadata);

}  // namespace privateclean

#endif  // PRIVATECLEAN_PRIVACY_ACCOUNTANT_H_
