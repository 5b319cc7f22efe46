#ifndef PRIVATECLEAN_PRIVACY_RANDOMIZED_RESPONSE_H_
#define PRIVATECLEAN_PRIVACY_RANDOMIZED_RESPONSE_H_

#include "common/random.h"
#include "common/result.h"
#include "table/column.h"
#include "table/domain.h"

namespace privateclean {

/// Randomized-response mechanism for a discrete attribute (paper §4.2.1):
///
///   r'[d] = r[d]              with probability 1 - p
///         = U(Domain(d))      with probability p
///
/// The replacement is drawn uniformly from `domain` — which must be the
/// domain of the *original dirty* column, captured before randomization.
/// Null is a legitimate domain member (spurious/missing values in the
/// dirty data are part of Domain(d) and participate in randomization).
///
/// Requires p in [0, 1] and a non-empty domain. p == 0 leaves the column
/// untouched (no privacy); p == 1 replaces every value.
Status ApplyRandomizedResponse(Column* column, const Domain& domain,
                               double p, Rng& rng);

/// Row-range kernel of randomized response, for sharded execution
/// (common/thread_pool.h): randomizes rows [begin, end) of `column`
/// drawing from `rng`, one Bernoulli(p) per row and one UniformInt(N)
/// only on replacement (p == 0 draws nothing). This is the one kernel of
/// every discrete mechanism family: `ApplyGrr` calls it at the family's
/// p_eff (privacy/mechanism.h). Kernels over disjoint ranges may run
/// concurrently on one column — writes go through the raw typed storage
/// and skip the shared null bookkeeping, so the caller must invoke
/// `column->RecomputeNullCount()` after all shards finish.
///
/// `domain_values` is the randomization domain (N = its size) prepared
/// for this column by `column->PrepareValues(domain.values())`, the
/// single-writer step before the sharded pass: a replacement is then one
/// table lookup and one store, whatever the column type.
///
/// If `coverage` is non-null it must point at N flags; the kernel sets
/// the flag of every domain value that appears in the range *after*
/// randomization — replaced rows mark the drawn index, untouched rows
/// mark `original_indices[r]` (the domain index of the row's
/// pre-randomization value, which the caller computes once per column;
/// UINT32_MAX marks a value outside the domain and contributes nothing).
/// This is how `ApplyGrr` tracks Theorem 2 domain preservation in the
/// same pass as the randomization instead of rescanning the column.
/// `original_indices` may be null when `coverage` is null.
Status ApplyRandomizedResponseShard(Column* column,
                                    const PreparedValues& domain_values,
                                    double p, Rng& rng, size_t begin,
                                    size_t end,
                                    const uint32_t* original_indices,
                                    uint8_t* coverage);

/// Transition probabilities of randomized response for a predicate that
/// selects l of the N distinct values (paper §5.3). These are the
/// deterministic constants the estimators are parameterized by.
struct TransitionProbabilities {
  double true_positive = 0.0;   ///< τ_p = (1-p) + p·l/N
  double false_positive = 0.0;  ///< τ_n = p·l/N
  double true_negative = 0.0;   ///< (1-p) + p·(N-l)/N
  double false_negative = 0.0;  ///< p·(N-l)/N
};

/// Computes the transition probabilities. `l` may be fractional in the
/// multi-attribute (weighted provenance) case (§7.2). Requires
/// 0 <= p <= 1, N >= 1 and 0 <= l <= N.
Result<TransitionProbabilities> ComputeTransitionProbabilities(double p,
                                                               double l,
                                                               double n);

}  // namespace privateclean

#endif  // PRIVATECLEAN_PRIVACY_RANDOMIZED_RESPONSE_H_
