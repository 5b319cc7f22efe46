#ifndef PRIVATECLEAN_PRIVACY_MECHANISM_H_
#define PRIVATECLEAN_PRIVACY_MECHANISM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "privacy/randomized_response.h"
#include "table/column.h"
#include "table/domain.h"

namespace privateclean {

/// Identifies a randomization-mechanism family plus its family-level
/// parameters, as carried in GrrOptions and persisted in the release
/// MANIFEST (`mechanism: <name> [key=value ...]`). Per-attribute
/// parameters — the paper's replacement probability p, HLM's per-column
/// ε, sampling privacy's inner p0 — continue to live in
/// DiscreteAttributeMeta::p / the parameter field of the MANIFEST's
/// `column:` line.
///
/// Registered families:
///   "grr"      — the paper's generalized randomized response (§4.2.1):
///                keep with probability 1-p, redraw uniformly with
///                probability p. param = p. No family parameters.
///   "hlm"      — Holohan–Leith–Mason optimal generalized RR
///                (arXiv 1612.05568 / 1505.07254): for a target ε on an
///                N-value domain, the diagonal-constant matrix with
///                diagonal e^ε/(e^ε+N-1) maximizes utility among all
///                ε-LDP mechanisms. param = ε. No family parameters.
///   "sampling" — subsample-then-randomize sampling privacy
///                (arXiv 1708.01884): keep a row's value in play with
///                probability β and apply inner RR(p0) to it; replace it
///                with a uniform domain draw otherwise. param = p0;
///                family parameter "beta" ∈ (0, 1].
struct MechanismSpec {
  std::string name = "grr";
  /// Family-level parameters by name (e.g. {"beta", 0.5}). The map is
  /// ordered so the MANIFEST rendering is canonical.
  std::map<std::string, double> params;
};

/// The N x N confusion matrix of a registered mechanism. Every mechanism
/// here is *diagonal-constant*: a value maps to itself with one constant
/// probability and to each other domain value with another
/// (diagonal + (n-1) * off_diagonal == 1). The full matrix is therefore
/// two numbers; Row/Column materialize it for callers that want the
/// dense view (and for the general EpsilonFromConfusionMatrix path).
struct ConfusionMatrix {
  size_t n = 0;
  double diagonal = 0.0;
  double off_diagonal = 0.0;

  double At(size_t row, size_t col) const {
    return row == col ? diagonal : off_diagonal;
  }
  std::vector<double> Row(size_t row) const;
  std::vector<double> Column(size_t col) const;
  /// The dense n x n matrix, row-major.
  std::vector<std::vector<double>> Dense() const;
};

/// One discrete-attribute randomization mechanism instance, bound to its
/// per-attribute parameter. Immutable and thread-safe: instances are
/// shared across query threads via shared_ptr<const Mechanism>.
///
/// The estimator math (core/estimators.cc, core/conjunctive.cc, both
/// provenance passes) depends on the mechanism only through
/// Transitions(), and privacy accounting only through Epsilon() — this
/// interface is the entire mechanism/estimator contract.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Registry name ("grr", "hlm", "sampling").
  virtual const char* name() const = 0;

  /// The per-attribute parameter exactly as persisted in the MANIFEST's
  /// `column:` line (grr: p, hlm: ε, sampling: inner p0).
  virtual double param() const = 0;

  /// The family spec this instance was built from (MANIFEST identity).
  virtual MechanismSpec Spec() const = 0;

  /// Realized probability that a row's value is replaced by a fresh
  /// uniform draw over an n-value domain. Every diagonal-constant
  /// mechanism is equivalent to uniform replacement with some effective
  /// probability p_eff; this is the single number the closed-form
  /// estimators need. For "grr" it is the stored p itself, independent
  /// of n, so the legacy estimator inputs are reproduced bit-exactly.
  virtual Result<double> ReplacementProbability(size_t n) const = 0;

  /// The confusion matrix over an n-value domain:
  /// diagonal = (1 - p_eff) + p_eff/n, off-diagonal = p_eff/n.
  Result<ConfusionMatrix> Confusion(size_t n) const;

  /// Transition probabilities for a predicate selecting l of the n dirty
  /// values (paper §5.3), derived from the realized replacement
  /// probability: τ_p = (1-p_eff) + p_eff·l/n, τ_n = p_eff·l/n. `l` may
  /// be fractional (weighted provenance cut, §7.2).
  Result<TransitionProbabilities> Transitions(double l, double n) const;

  /// The ε this mechanism spends on an n-value domain. +infinity flags a
  /// non-private configuration (e.g. grr with p == 0); infeasible
  /// (parameter, domain-size) combinations are typed InvalidArgument.
  ///
  /// Accounting is per-family: "grr" reports the paper's Lemma 1 formula
  /// ln(3/p - 2) for fidelity with the source paper; "hlm" reports its
  /// exact target ε (the matrix attains ln(diag/off) == ε by
  /// construction); "sampling" reports the exact ln(diag/off) of the
  /// combined matrix, which the subsampling amplification bound
  /// ln(1 + β(e^{ε0} - 1)) provably dominates.
  virtual Result<double> Epsilon(size_t n) const = 0;

  /// Row-range perturbation kernel, contract identical to
  /// ApplyRandomizedResponseShard (privacy/randomized_response.h): the
  /// caller pre-interns domain codes, forks one RNG stream per shard in
  /// shard order, and recomputes the null count after all shards finish.
  virtual Status PerturbShard(Column* column, const Domain& domain, Rng& rng,
                              size_t begin, size_t end,
                              const uint32_t* original_indices,
                              uint8_t* coverage,
                              const uint32_t* domain_codes) const = 0;

  /// Numeric-attribute kernel. Every registered family noises numeric
  /// columns with the paper's Laplace mechanism (scale b); the default
  /// delegates to ApplyLaplaceMechanismShard. Kept on the interface so
  /// the GRR + Laplace pair is ported onto it as a unit and a future
  /// family can substitute e.g. a subsampled or staircase mechanism.
  virtual Status NoiseNumericShard(Column* column, double b, Rng& rng,
                                   size_t begin, size_t end) const;
};

using MechanismPtr = std::shared_ptr<const Mechanism>;

/// True when `name` is a registered mechanism family.
bool IsKnownMechanism(const std::string& name);

/// Registered family names, in registry order.
const std::vector<std::string>& KnownMechanisms();

/// Validates the family-level spec: known name, no unknown parameter
/// keys, required parameters present and in range (e.g. sampling's
/// β ∈ (0, 1]). Unknown names are FailedPrecondition (the reader-side
/// contract for releases written by a newer build); bad parameters are
/// InvalidArgument.
Status ValidateMechanismSpec(const MechanismSpec& spec);

/// Builds a mechanism instance from its family spec and per-attribute
/// parameter. Errors are typed: FailedPrecondition for unknown names,
/// InvalidArgument for infeasible parameters (grr p outside [0, 1],
/// hlm ε negative or non-finite, sampling p0 outside [0, 1] or β
/// outside (0, 1]).
Result<MechanismPtr> MakeMechanism(const MechanismSpec& spec, double param);

/// Canonical one-line rendering for the MANIFEST: the family name
/// followed by space-separated key=value parameters in key order, e.g.
/// "sampling beta=0.5". Inverse of ParseMechanismSpec.
std::string RenderMechanismSpec(const MechanismSpec& spec);

/// Parses the MANIFEST rendering. Purely syntactic (name token plus
/// key=value pairs); semantic validation is ValidateMechanismSpec.
Result<MechanismSpec> ParseMechanismSpec(const std::string& text);

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

/// The subsampling amplification bound (arXiv 1708.01884): running an
/// ε0-LDP mechanism on a β-subsample is ln(1 + β(e^{ε0} - 1))-LDP.
/// Requires ε0 >= 0 and β ∈ (0, 1]; typed InvalidArgument otherwise.
Result<double> SamplingAmplifiedEpsilon(double inner_epsilon, double beta);

}  // namespace privateclean

#endif  // PRIVATECLEAN_PRIVACY_MECHANISM_H_
