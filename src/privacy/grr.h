#ifndef PRIVATECLEAN_PRIVACY_GRR_H_
#define PRIVATECLEAN_PRIVACY_GRR_H_

#include <memory>
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
/// per-attribute mechanism parameter, the snapshot of the *dirty* domain
/// at randomization time, and the mechanism instance itself. The domain
/// snapshot is what query processing needs — it fixes N (the number of
/// distinct dirty values) and anchors the provenance graph's left-hand
/// side (paper §6.2).
struct DiscreteAttributeMeta {
  /// The mechanism's stored per-attribute parameter (the MANIFEST
  /// `column:` line's parameter):
  /// the replacement probability for "grr", the target ε for "hlm", the
  /// inner randomization probability p0 for "sampling". Named `p` for
  /// continuity with the paper and the pre-mechanism-zoo layout.
  double p = 0.0;
  Domain domain;
  /// Null means legacy GRR with parameter `p` (pre-mechanism-zoo
  /// metadata, including every hand-built test fixture); resolve
  /// through MechanismFor() rather than dereferencing directly.
  std::shared_ptr<const Mechanism> mechanism;
};

/// The mechanism behind a metadata entry, with null defaulting to the
/// paper's GRR at parameter `meta.p` — the explicit legacy fallback for
/// metadata built before the mechanism zoo (or by hand in tests).
Result<MechanismPtr> MechanismFor(const DiscreteAttributeMeta& meta);

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
  MechanismSpec mechanism_spec;
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
  /// "hlm", inner p0 for "sampling". Numeric attributes use the Laplace
  /// mechanism under every family.
  MechanismSpec mechanism;
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
