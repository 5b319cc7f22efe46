#ifndef PRIVATECLEAN_PRIVACY_GRR_H_
#define PRIVATECLEAN_PRIVACY_GRR_H_

#include <string>
#include <unordered_map>

#include "common/random.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "privacy/mechanism.h"
#include "privacy/privacy_params.h"
#include "table/domain.h"
#include "table/table.h"

namespace privateclean {

/// Metadata retained for one randomized discrete attribute: the
/// family's per-attribute parameter and the snapshot of the *dirty*
/// domain at randomization time. The domain snapshot is what query
/// processing needs — it fixes N (the number of distinct dirty values)
/// and anchors the provenance graph's left-hand side (paper §6.2) — and
/// with the relation-wide family (PrivateRelationMetadata::mechanism) it
/// gives the attribute's p_eff and ε (privacy/mechanism.h).
struct DiscreteAttributeMeta {
  /// The family's per-attribute parameter (the MANIFEST `column:` line's
  /// parameter): the replacement probability p for "grr", the target ε
  /// for "hlm". Named `p` after the paper.
  double p = 0.0;
  Domain domain;
};

/// Metadata for one noised numerical attribute.
struct NumericAttributeMeta {
  double b = 0.0;
  double sensitivity = 0.0;  ///< Δ at randomization time (max − min).
};

/// Everything the provider hands the analyst alongside the private
/// relation V. These are public parameters of the mechanism — revealing
/// them does not weaken ε-local differential privacy.
struct PrivateRelationMetadata {
  size_t dataset_size = 0;  ///< S
  std::unordered_map<std::string, DiscreteAttributeMeta> discrete;
  std::unordered_map<std::string, NumericAttributeMeta> numeric;
  /// The mechanism family the relation was randomized under, persisted
  /// in the release MANIFEST so a release is never decoded with the
  /// wrong estimator. Defaults to the paper's GRR.
  MechanismFamily mechanism = MechanismFamily::kGrr;
  /// The SQL relation name this table answers to in FROM clauses. Empty
  /// means unnamed: in-process tables accept any FROM spelling. Releases
  /// persist the name in the MANIFEST (`relation:` line) and default to
  /// "r", the paper's private view R.
  std::string relation_name;
};

/// Options for private-relation generation.
struct GrrOptions {
  /// Regenerate a discrete column's randomization until every dirty
  /// domain value is still visible (paper §4.3: "the database can
  /// regenerate the private views until this is true").
  bool ensure_domain_preserved = true;
  /// Abort with FailedPrecondition after this many attempts per column —
  /// a symptom that the dataset violates the Theorem 2 size bound badly.
  size_t max_regenerations = 1000;
  /// The randomization-mechanism family for discrete attributes (see
  /// privacy/mechanism.h). The per-attribute parameter still comes from
  /// GrrParams (`discrete_p` / `default_p`): p for "grr", target ε for
  /// "hlm". Numeric attributes use the Laplace mechanism under every
  /// family.
  MechanismFamily mechanism = MechanismFamily::kGrr;
  /// Threading for the per-row randomization loops. Rows are sharded by
  /// size alone and each shard forks its own RNG stream by shard index,
  /// so for a fixed seed the private relation is bit-identical at any
  /// thread count (see common/thread_pool.h).
  ExecutionOptions exec;
};

/// The result of Generalized Randomized Response.
struct GrrOutput {
  Table table;  ///< The ε-locally-differentially-private relation V.
  PrivateRelationMetadata metadata;
  size_t total_regenerations = 0;  ///< Extra draws due to masked values.
};

/// Applies Generalized Randomized Response (paper §4.2) to `input`:
/// randomized response with p_i on each discrete attribute, Laplace noise
/// with scale b_i on each numerical attribute.
///
/// Parameters are taken from `params.discrete_p` / `params.numeric_b`,
/// falling back to `params.default_p` / `params.default_b`. Every
/// attribute must be covered: GRR refuses to leave a column non-private,
/// because a single non-randomized column can de-randomize the others
/// (Theorem 1 interpretation).
Result<GrrOutput> ApplyGrr(const Table& input, const GrrParams& params,
                           const GrrOptions& options, Rng& rng);

}  // namespace privateclean

#endif  // PRIVATECLEAN_PRIVACY_GRR_H_
