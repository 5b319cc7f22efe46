#include "privacy/privacy_params.h"

#include <cmath>

namespace privateclean {

Result<double> EpsilonForRandomizedResponse(double p) {
  if (!(p > 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(
        "randomization probability must be in (0, 1], got " +
        std::to_string(p));
  }
  return std::log(3.0 / p - 2.0);
}

Result<double> RandomizationForEpsilon(double epsilon) {
  if (epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }
  return 3.0 / (std::exp(epsilon) + 2.0);
}

Result<double> EpsilonForLaplace(double delta, double b) {
  if (!(delta >= 0.0 && std::isfinite(delta))) {
    return Status::InvalidArgument("sensitivity must be finite and >= 0");
  }
  if (!(b > 0.0)) {
    return Status::InvalidArgument("Laplace scale must be > 0");
  }
  return delta / b;
}

Result<double> LaplaceScaleForEpsilon(double delta, double epsilon) {
  if (!(delta >= 0.0 && std::isfinite(delta))) {
    return Status::InvalidArgument("sensitivity must be finite and >= 0");
  }
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  return delta / epsilon;
}

GrrParams GrrParams::Uniform(double p, double b) {
  GrrParams params;
  params.default_p = p;
  params.default_b = b;
  return params;
}

}  // namespace privateclean
