#include "privacy/accountant.h"

#include <cmath>
#include <limits>

#include "privacy/mechanism.h"
#include "privacy/privacy_params.h"

namespace privateclean {

Result<PrivacyReport> AccountPrivacy(
    const PrivateRelationMetadata& metadata) {
  PrivacyReport report;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  for (const auto& [name, meta] : metadata.discrete) {
    PCLEAN_ASSIGN_OR_RETURN(
        double eps,
        DiscreteEpsilon(metadata.mechanism, meta.p, meta.domain.size()));
    if (std::isinf(eps)) report.fully_private = false;
    report.per_attribute_epsilon.emplace(name, eps);
  }
  for (const auto& [name, meta] : metadata.numeric) {
    double eps;
    if (meta.b <= 0.0) {
      // Zero noise: private only in the degenerate Δ == 0 case.
      eps = (meta.sensitivity == 0.0) ? 0.0 : kInf;
      if (eps == kInf) report.fully_private = false;
    } else {
      PCLEAN_ASSIGN_OR_RETURN(eps,
                              EpsilonForLaplace(meta.sensitivity, meta.b));
    }
    report.per_attribute_epsilon.emplace(name, eps);
  }

  report.total_epsilon = 0.0;
  for (const auto& [name, eps] : report.per_attribute_epsilon) {
    (void)name;
    report.total_epsilon += eps;
  }
  return report;
}

}  // namespace privateclean
