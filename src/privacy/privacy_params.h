#ifndef PRIVATECLEAN_PRIVACY_PRIVACY_PARAMS_H_
#define PRIVATECLEAN_PRIVACY_PRIVACY_PARAMS_H_

#include <string>
#include <unordered_map>

#include "common/result.h"

namespace privateclean {

/// Conversions between the user-facing privacy knobs and ε (local
/// differential privacy), per the paper's Lemma 1 and Proposition 1.

/// ε achieved by randomized response with randomization probability p:
/// ε = ln(3/p − 2) (Lemma 1's worst case, domain size 2). Requires
/// p ∈ (0, 1]. p = 1 gives ε = 0 (every value replaced by a uniform
/// draw — maximal privacy); p → 0 gives ε → ∞.
Result<double> EpsilonForRandomizedResponse(double p);

/// Inverse of the above: the randomization probability that achieves ε:
/// p = 3 / (exp(ε) + 2). Requires ε >= 0.
Result<double> RandomizationForEpsilon(double epsilon);

/// ε achieved by the Laplace mechanism with scale b on an attribute of
/// sensitivity Δ (max − min): ε = Δ / b. Requires a finite Δ >= 0 and
/// b > 0.
Result<double> EpsilonForLaplace(double delta, double b);

/// The Laplace scale achieving ε on sensitivity Δ: b = Δ / ε.
/// Requires a finite Δ >= 0 and ε > 0.
Result<double> LaplaceScaleForEpsilon(double delta, double epsilon);

/// Per-attribute GRR parameters (paper §4.2.3): the randomization
/// probability p_i for each discrete attribute and the Laplace scale b_i
/// for each numerical attribute. Attributes missing from the maps are an
/// error at GRR time — privacy must be explicit for every column, because
/// one non-private column de-privatizes the rest (Theorem 1 discussion).
struct GrrParams {
  std::unordered_map<std::string, double> discrete_p;
  std::unordered_map<std::string, double> numeric_b;

  /// Uniform parameters for every attribute of the respective kind. The
  /// maps are filled in by ApplyGrr from the input schema when a uniform
  /// value is set and the map entry is absent.
  double default_p = -1.0;  ///< < 0 means "no default".
  double default_b = -1.0;  ///< < 0 means "no default".

  /// Convenience: same p for all discrete and same b for all numerical
  /// attributes.
  static GrrParams Uniform(double p, double b);
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_PRIVACY_PRIVACY_PARAMS_H_
