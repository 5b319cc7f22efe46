#include "privacy/mechanism.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "privacy/privacy_params.h"

namespace privateclean {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Status CheckDomainSize(MechanismFamily family, size_t n) {
  if (n == 0) {
    return Status::InvalidArgument(std::string(MechanismName(family)) +
                                   " mechanism needs a non-empty domain");
  }
  return Status::OK();
}

Status CheckGrrProbability(double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(
        "grr randomization probability must be in [0, 1], got " +
        FormatDouble(p));
  }
  return Status::OK();
}

Status CheckHlmEpsilon(double epsilon) {
  if (!(epsilon >= 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        "hlm target epsilon must be finite and >= 0, got " +
        FormatDouble(epsilon));
  }
  return Status::OK();
}

}  // namespace

const char* MechanismName(MechanismFamily family) {
  return family == MechanismFamily::kHlm ? "hlm" : "grr";
}

Result<MechanismFamily> ParseMechanismFamily(const std::string& name) {
  std::string known;
  for (MechanismFamily family : kMechanismFamilies) {
    if (name == MechanismName(family)) return family;
    if (!known.empty()) known += ", ";
    known += MechanismName(family);
  }
  return Status::FailedPrecondition("unknown mechanism '" + name +
                                    "'; this build supports: " + known);
}

Result<double> ReplacementProbability(MechanismFamily family, double param,
                                      size_t n) {
  PCLEAN_RETURN_NOT_OK(CheckDomainSize(family, n));
  if (family == MechanismFamily::kGrr) {
    PCLEAN_RETURN_NOT_OK(CheckGrrProbability(param));
    return param;
  }
  PCLEAN_RETURN_NOT_OK(CheckHlmEpsilon(param));
  const double nd = static_cast<double>(n);
  // exp overflow gives +inf and p_eff -> 0: an arbitrarily large ε
  // degrades gracefully to "keep everything".
  return nd / (std::exp(param) + nd - 1.0);
}

Result<double> DiscreteEpsilon(MechanismFamily family, double param,
                               size_t n) {
  PCLEAN_RETURN_NOT_OK(CheckDomainSize(family, n));
  if (family == MechanismFamily::kGrr) {
    if (param <= 0.0) return kInf;  // No randomization: non-private.
    PCLEAN_RETURN_NOT_OK(CheckGrrProbability(param));
    return EpsilonForRandomizedResponse(param);
  }
  PCLEAN_RETURN_NOT_OK(CheckHlmEpsilon(param));
  if (n == 1) return 0.0;
  return param;  // Attained exactly: ln(diagonal/off-diagonal) == ε.
}

Result<double> ParamForEpsilon(MechanismFamily family, double epsilon) {
  if (family == MechanismFamily::kGrr) return RandomizationForEpsilon(epsilon);
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }
  return epsilon;
}

Result<double> EpsilonFromConfusionMatrix(
    const std::vector<std::vector<double>>& matrix) {
  const size_t n = matrix.size();
  if (n == 0) {
    return Status::InvalidArgument("confusion matrix must be non-empty");
  }
  constexpr double kRowSumTolerance = 1e-9;
  for (size_t i = 0; i < n; ++i) {
    if (matrix[i].size() != n) {
      return Status::InvalidArgument(
          "confusion matrix must be square; row " + std::to_string(i) +
          " has " + std::to_string(matrix[i].size()) + " of " +
          std::to_string(n) + " entries");
    }
    double sum = 0.0;
    for (double v : matrix[i]) {
      if (!(v >= 0.0)) {
        return Status::InvalidArgument(
            "confusion matrix entries must be >= 0 (row " +
            std::to_string(i) + ")");
      }
      sum += v;
    }
    if (std::abs(sum - 1.0) > kRowSumTolerance) {
      return Status::InvalidArgument(
          "confusion matrix row " + std::to_string(i) + " sums to " +
          FormatDouble(sum) + ", not 1");
    }
  }
  double epsilon = 0.0;
  for (size_t j = 0; j < n; ++j) {
    double lo = kInf;
    double hi = 0.0;
    for (size_t i = 0; i < n; ++i) {
      lo = std::min(lo, matrix[i][j]);
      hi = std::max(hi, matrix[i][j]);
    }
    if (hi == 0.0) continue;  // Output never occurs; constrains nothing.
    if (lo == 0.0) {
      return Status::FailedPrecondition(
          "confusion matrix column " + std::to_string(j) +
          " mixes zero and non-zero entries: the likelihood ratio is "
          "unbounded, so no finite epsilon exists");
    }
    epsilon = std::max(epsilon, std::log(hi / lo));
  }
  return epsilon;
}

}  // namespace privateclean
