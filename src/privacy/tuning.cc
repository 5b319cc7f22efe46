#include "privacy/tuning.h"

#include <cmath>

#include "common/statistics.h"
#include "privacy/laplace_mechanism.h"

namespace privateclean {

Result<double> CountErrorBound(double p, size_t dataset_size,
                               double confidence) {
  if (!(p >= 0.0 && p < 1.0)) {
    return Status::InvalidArgument("p must be in [0, 1)");
  }
  if (dataset_size == 0) {
    return Status::InvalidArgument("dataset size must be > 0");
  }
  PCLEAN_ASSIGN_OR_RETURN(double z, ZScoreForConfidence(confidence));
  return z / (1.0 - p) *
         std::sqrt(1.0 / (4.0 * static_cast<double>(dataset_size)));
}

Result<double> SumErrorBound(double p, double b, double mean,
                             double variance, size_t dataset_size,
                             double confidence) {
  if (!(p >= 0.0 && p < 1.0)) {
    return Status::InvalidArgument("p must be in [0, 1)");
  }
  if (b < 0.0) return Status::InvalidArgument("b must be >= 0");
  if (variance < 0.0) {
    return Status::InvalidArgument("variance must be >= 0");
  }
  if (dataset_size == 0) {
    return Status::InvalidArgument("dataset size must be > 0");
  }
  PCLEAN_ASSIGN_OR_RETURN(double z, ZScoreForConfidence(confidence));
  double s = static_cast<double>(dataset_size);
  return z / (1.0 - p) *
         std::sqrt(std::abs(mean) / s + 4.0 * (variance + 2.0 * b * b) / s);
}

Result<TuningResult> TunePrivacyParameters(const Table& table,
                                           double max_count_error,
                                           double confidence) {
  if (!(max_count_error > 0.0)) {
    return Status::InvalidArgument("max_count_error must be > 0");
  }
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot tune on an empty relation");
  }
  PCLEAN_ASSIGN_OR_RETURN(double z, ZScoreForConfidence(confidence));
  double s = static_cast<double>(table.num_rows());

  // Step 1 (Appendix E): p = 1 − z · sqrt(1/(4·S·error²)).
  double p = 1.0 - z * std::sqrt(1.0 / (4.0 * s * max_count_error *
                                        max_count_error));
  if (p <= 0.0) {
    return Status::InvalidArgument(
        "target count error " + std::to_string(max_count_error) +
        " is unattainable at this dataset size even without randomization "
        "(need a larger relation or a looser error target)");
  }

  TuningResult result;
  result.p = p;
  // ε implied by p; 0 < p < 1 here, so ε > 0.
  PCLEAN_ASSIGN_OR_RETURN(result.per_attribute_epsilon,
                          EpsilonForRandomizedResponse(p));

  // Step 3: b_j = Δ_j / ε so each numerical attribute matches ε.
  const Schema& schema = table.schema();
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.field(i);
    if (field.kind != AttributeKind::kNumerical) continue;
    PCLEAN_ASSIGN_OR_RETURN(double delta, AttributeSensitivity(table, i));
    double b = (result.per_attribute_epsilon > 0.0)
                   ? delta / result.per_attribute_epsilon
                   : 0.0;
    result.numeric_b.emplace(field.name, b);
  }
  return result;
}

GrrParams ToGrrParams(const TuningResult& tuning) {
  GrrParams params;
  params.default_p = tuning.p;
  params.numeric_b = tuning.numeric_b;
  // default_b stays unset: every numerical attribute got an explicit b.
  return params;
}

}  // namespace privateclean
