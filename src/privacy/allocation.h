#ifndef PRIVATECLEAN_PRIVACY_ALLOCATION_H_
#define PRIVATECLEAN_PRIVACY_ALLOCATION_H_

#include <string>
#include <unordered_map>

#include "common/result.h"
#include "privacy/mechanism.h"
#include "privacy/privacy_params.h"
#include "table/table.h"

namespace privateclean {

/// ε-budget allocation (paper §4.2.3, "Setting ε"): the provider fixes a
/// total privacy budget and splits it across attributes; Theorem 1's
/// composition then guarantees the released relation is
/// total_epsilon-locally-differentially-private.
///
/// Each attribute's share ε_i is converted to its mechanism parameter:
/// discrete attributes get p_i = 3/(exp(ε_i) + 2) (inverse of Lemma 1),
/// numerical attributes get b_j = Δ_j/ε_j with Δ_j the attribute's
/// observed sensitivity (Proposition 1).
///
/// `weights` optionally skews the split (keyed by attribute name;
/// missing attributes get weight 1). Shares are proportional to weight,
/// so AllocateEpsilonBudget(t, 3.0, {{"ssn", 0.5}}) gives the "ssn"
/// column half the ε (i.e. *more* privacy) of every other column.
///
/// `mechanism` converts each discrete share ε_i into the per-attribute
/// parameter of the requested family (ParamForEpsilon in
/// privacy/mechanism.h; default: the paper's GRR):
///  - "grr": p_i = 3/(exp(ε_i) + 2), the paper inversion above.
///  - "hlm": the parameter *is* the target ε_i; randomization calibrates
///           p_eff = N/(e^{ε_i} + N − 1) per attribute.
/// Numerical attributes get b_j = Δ_j/ε_j under every family.
Result<GrrParams> AllocateEpsilonBudget(
    const Table& table, double total_epsilon,
    const std::unordered_map<std::string, double>& weights = {},
    MechanismFamily mechanism = MechanismFamily::kGrr);

}  // namespace privateclean

#endif  // PRIVATECLEAN_PRIVACY_ALLOCATION_H_
