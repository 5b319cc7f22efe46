#ifndef PRIVATECLEAN_PRIVACY_MECHANISM_H_
#define PRIVATECLEAN_PRIVACY_MECHANISM_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"

namespace privateclean {

/// Every discrete attribute is randomized by one rule, the paper's
/// (§4.2.1): keep a row's value with probability 1 − p_eff, otherwise
/// replace it with a uniform draw from the attribute's dirty domain
/// (ApplyRandomizedResponseShard). A family is a way of writing p_eff as
/// the per-attribute parameter stored in DiscreteAttributeMeta::p and in
/// the MANIFEST's `column:` lines:
///
///   grr — the paper's generalized randomized response: param = p_eff.
///         Its ε is the paper's Lemma 1, ln(3/p − 2).
///   hlm — Holohan–Leith–Mason optimal RR (arXiv 1612.05568): param is
///         the target ε, and p_eff = N/(e^ε + N − 1), the diagonal-
///         constant matrix whose ln(diagonal/off-diagonal) is exactly ε.
///
/// The functions below are the only code that turns (family, param, N)
/// into p_eff or into the reported ε, or an ε share into a param. A
/// release records its family in the MANIFEST as `mechanism: <name>`.
enum class MechanismFamily { kGrr, kHlm };

/// Every family, in the order error messages list them.
inline constexpr MechanismFamily kMechanismFamilies[] = {
    MechanismFamily::kGrr, MechanismFamily::kHlm};

/// The family's name in the MANIFEST and on the command line.
const char* MechanismName(MechanismFamily family);

/// The family called `name`. Any other name is FailedPrecondition naming
/// it and the supported families: for a release, a capability gap of
/// this reader rather than damage.
Result<MechanismFamily> ParseMechanismFamily(const std::string& name);

/// p_eff, the probability that a row's value is replaced by a uniform
/// draw over the attribute's `n`-value dirty domain. InvalidArgument for
/// an empty domain or an infeasible param (grr p outside [0, 1], hlm ε
/// negative or not finite).
Result<double> ReplacementProbability(MechanismFamily family, double param,
                                      size_t n);

/// The ε an attribute reports: grr ln(3/p − 2), +∞ for p ≤ 0 (values
/// kept verbatim); hlm its target ε, 0 when n == 1 (one value carries no
/// information). InvalidArgument for an empty domain, a grr p above 1 or
/// an infeasible hlm ε.
Result<double> DiscreteEpsilon(MechanismFamily family, double param,
                               size_t n);

/// The param that spends an ε share: grr p = 3/(e^ε + 2), the inverse
/// of Lemma 1; hlm the share itself. Requires ε >= 0.
Result<double> ParamForEpsilon(MechanismFamily family, double epsilon);

/// ε of an arbitrary (not necessarily symmetric or diagonal-constant)
/// row-stochastic confusion matrix M, where M[i][j] = P(output j | true
/// value i): the worst-case log-likelihood ratio
/// max_j max_{i,i'} ln(M[i][j] / M[i'][j]).
///
/// Typed errors: InvalidArgument for a non-square/empty matrix, negative
/// entries, or a row not summing to 1; FailedPrecondition when some
/// output column mixes zero and non-zero entries (an unbounded
/// likelihood ratio — observing that output identifies the input, so no
/// finite ε exists). An all-zero column is skipped: the output never
/// occurs, so it constrains nothing.
Result<double> EpsilonFromConfusionMatrix(
    const std::vector<std::vector<double>>& matrix);

}  // namespace privateclean

#endif  // PRIVATECLEAN_PRIVACY_MECHANISM_H_
