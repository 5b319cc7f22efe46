#ifndef PRIVATECLEAN_CORE_PRIVATE_TABLE_H_
#define PRIVATECLEAN_CORE_PRIVATE_TABLE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cleaning/pipeline.h"
#include "core/conjunctive.h"
#include "core/estimators.h"
#include "core/query_result.h"
#include "privacy/accountant.h"
#include "privacy/grr.h"
#include "privacy/tuning.h"
#include "provenance/provenance_manager.h"
#include "query/aggregate.h"

namespace privateclean {

/// Per-query knobs for PrivateTable estimators.
struct QueryOptions {
  double confidence = 0.95;
  /// true: weighted provenance cut (PC-W, §7.2);
  /// false: unweighted vertex count (PC-U, §6.3) — on forked graphs this
  /// over-counts; exposed for the Figure 7 ablation.
  bool weighted_cut = true;
  /// Threading (common/thread_pool.h) for every row pass a query runs:
  /// Direct's predicate scans, ExecuteAggregate's per-row loops, the
  /// builds of the cached provenance graphs, row indexes, moments and
  /// per-value sums (Count and GroupByCountEstimate read the graph's
  /// counts; Sum and Avg merge per-value sums; a two-attribute COUNT
  /// visits the rows a row index names), and the bootstrap replicate loop
  /// of the §10 extension aggregates. Counts are exact and every sum is
  /// the correctly rounded exact sum, so results are identical at every
  /// thread count.
  ExecutionOptions exec;

  /// Extension aggregates (median/percentile/var/std) through the SQL
  /// front-end: when > 0, wrap the point estimate in a bootstrap
  /// percentile interval with this many replicates (paper §10); 0 (the
  /// default) returns the point estimate with a degenerate interval.
  size_t bootstrap_replicates = 0;

  /// Seed of the bootstrap resampling stream (only consulted when
  /// `bootstrap_replicates > 0`). Fixed seed + fixed replicate count =
  /// bit-identical interval at any thread count.
  uint64_t bootstrap_seed = 0x9E3779B97F4A7C15ULL;
};

/// The PrivateClean facade: an ε-locally-differentially-private relation
/// V that the analyst can clean (Extract/Transform/Merge) and query
/// (sum/count/avg with single-discrete-attribute predicates), with
/// bias-corrected estimates and CLT confidence intervals.
///
/// Lifecycle (paper Figure 1):
///   1. the *provider* calls Create() on the original dirty relation R —
///      GRR randomizes it and the original is no longer needed;
///   2. the *analyst* applies cleaning operations with Clean();
///   3. the analyst runs aggregate queries with Count()/Sum()/Avg() (the
///      PrivateClean estimator) or ExecuteDirect() (the uncorrected
///      baseline).
///
/// The table keeps the GRR metadata (p_i, b_i, domains, S) and a
/// provenance manager that snapshots V's discrete columns before the
/// first cleaner runs, so after any composition of cleaners it can
/// rebuild the dirty→clean bipartite graph and re-anchor query
/// selectivity in the dirty domain (paper §6–§7). A table that is never
/// cleaned holds no copy of a column.
class PrivateTable {
 public:
  /// Privatizes `original` with explicit GRR parameters.
  static Result<PrivateTable> Create(const Table& original,
                                     const GrrParams& params,
                                     const GrrOptions& options, Rng& rng);

  /// Privatizes `original` with parameters chosen by the Appendix E
  /// tuning algorithm for a desired worst-case count error (selectivity
  /// units) at the given confidence.
  static Result<PrivateTable> CreateWithTuning(const Table& original,
                                               double max_count_error,
                                               double confidence, Rng& rng);

  /// Privatizes `original` under a total ε budget, split uniformly
  /// across all attributes (Theorem 1 composition; §4.2.3 "Setting ε").
  static Result<PrivateTable> CreateWithEpsilonBudget(const Table& original,
                                                      double total_epsilon,
                                                      Rng& rng);

  /// Wraps an already-privatized relation (e.g. loaded from a release
  /// directory, see core/release.h). `relation` must be the *uncleaned*
  /// private relation: the provenance snapshot anchors to it. The
  /// metadata must cover every attribute of the relation's schema.
  static Result<PrivateTable> FromPrivateRelation(
      Table relation, PrivateRelationMetadata metadata);

  /// The current private relation (V before cleaning, V_clean after).
  const Table& relation() const { return relation_; }

  /// S, the relation size.
  size_t size() const { return relation_.num_rows(); }

  /// GRR metadata (public mechanism parameters).
  const PrivateRelationMetadata& metadata() const { return metadata_; }

  /// Theorem 1 ε accounting for this relation.
  Result<PrivacyReport> PrivacyAccounting() const {
    return AccountPrivacy(metadata_);
  }

  /// Applies one cleaner to the private relation, keeping provenance
  /// consistent (Extract cleaners are registered with their anchor).
  Status Clean(const Cleaner& cleaner);

  /// Applies a whole pipeline, stopping at the first failure.
  Status Clean(const CleaningPipeline& pipeline);

  /// --- PrivateClean estimators (bias-corrected, §5–§7) ----------------

  /// COUNT rows satisfying `predicate`. The nominal count is read from
  /// the cached provenance graph's clean-value row counts, not scanned.
  Result<QueryResult> Count(const Predicate& predicate,
                            const QueryOptions& options = QueryOptions()) const;

  /// SUM of `numeric_attribute` over rows satisfying `predicate`: h_p
  /// merges the cached per-value sums of the clean values the predicate
  /// matches and h_p^c is their exact complement, with no row scan,
  /// whatever type stores the predicate's attribute. Both are the
  /// correctly rounded exact sums.
  Result<QueryResult> Sum(const std::string& numeric_attribute,
                          const Predicate& predicate,
                          const QueryOptions& options = QueryOptions()) const;

  /// AVG of `numeric_attribute` over rows satisfying `predicate`, read
  /// like Sum; the count side counts only rows with a non-null value.
  Result<QueryResult> Avg(const std::string& numeric_attribute,
                          const Predicate& predicate,
                          const QueryOptions& options = QueryOptions()) const;

  /// COUNT rows satisfying `cond_a AND cond_b`, where the two predicates
  /// condition on two *different* discrete attributes (§10 SPJ
  /// extension): the per-attribute correction constants compose via the
  /// Kronecker product of the transition matrices. Both attributes'
  /// selectivities are provenance-adjusted, so this works after cleaning.
  /// The quadrant counts come from the cached row indexes
  /// (CountConjunctiveQuadrants), not from a scan of every row.
  Result<QueryResult> CountConjunctive(
      const Predicate& cond_a, const Predicate& cond_b,
      const QueryOptions& options = QueryOptions()) const;

  /// The nominal count of `cond_a AND cond_b` on the current relation:
  /// CountMatchingBoth (core/conjunctive.h) over the cached row index of
  /// each side whose attribute is discrete. At least one must be.
  Result<size_t> CountMatchingBoth(const Predicate& cond_a,
                                   const Predicate& cond_b,
                                   const ExecutionOptions& exec = {}) const;

  /// Corrected COUNT for every distinct value of `attribute` in the
  /// cleaned private relation — the paper's
  /// `SELECT count(1) FROM R GROUP BY attribute` (§8.3.4), one corrected
  /// estimate per group, in the clean domain's first-appearance order.
  Result<std::vector<std::pair<Value, QueryResult>>> GroupByCountEstimate(
      const std::string& attribute,
      const QueryOptions& options = QueryOptions()) const;

  /// Generic entry point: dispatches sum/count/avg, with or without a
  /// predicate. Queries without a predicate use the Direct estimator,
  /// which is unbiased there (§5.1), with a Laplace-noise interval.
  Result<QueryResult> Execute(const AggregateQuery& query,
                              const QueryOptions& options = QueryOptions()) const;

  /// --- Baselines and extensions ----------------------------------------

  /// The Direct estimator (§8.1): nominal value on the cleaned private
  /// relation, no re-weighting — ExecuteAggregate's answer, with its null
  /// rules. Only `options.exec` is consulted (Direct has no confidence
  /// interval or provenance cut to configure).
  Result<QueryResult> ExecuteDirect(
      const AggregateQuery& query,
      const QueryOptions& options = QueryOptions()) const;

  /// §10 extension aggregates on the private relation: median and
  /// percentile pass through (Laplace noise has zero median); var/std
  /// subtract the known noise variance 2b². Predicates are applied
  /// nominally (no selectivity correction). Caveat: the median
  /// pass-through is exact only for distributions roughly symmetric
  /// around their median — on heavily skewed marginals the noised median
  /// shifts toward the heavy tail.
  ///
  /// `query.numeric_attribute` must exist in the relation (typed
  /// InvalidArgument otherwise). An attribute that exists but carries no
  /// Laplace noise — b = 0 in the metadata, or a column outside the
  /// numeric metadata entirely — gets a documented no-op correction
  /// (b = 0): its nominal value needs no de-noising.
  ///
  /// The row pass is sharded per `exec` (common/thread_pool.h).
  Result<double> ExtendedAggregate(const AggregateQuery& query,
                                   const ExecutionOptions& exec = {}) const;

  /// §10: confidence intervals for the extension aggregates via the
  /// bootstrap ("calculating confidence intervals ... require[s] an
  /// empirical method"). Resamples the private relation's rows with
  /// replacement `replicates` times and returns the point estimate with
  /// the percentile interval of the replicate statistics.
  ///
  /// Replicates run through the deterministic parallel engine per `exec`:
  /// one RNG stream is forked per replicate in replicate-index order, and
  /// replicate values merge in replicate order, so for a fixed seed the
  /// interval is bit-identical at any thread count. Degenerate resamples
  /// (e.g. an empty selection under the query's predicate) are dropped;
  /// the surviving count is reported in `QueryResult::replicates_effective`
  /// and at least half of `replicates` (rounding up for odd counts) must
  /// survive or the call fails with FailedPrecondition.
  Result<QueryResult> BootstrapExtendedAggregate(
      const AggregateQuery& query, Rng& rng, size_t replicates = 200,
      double confidence = 0.95, const ExecutionOptions& exec = {}) const;

  /// --- Introspection -----------------------------------------------------

  /// The current provenance graph of a discrete attribute, built on
  /// first use and cached: the pointer stays valid until the next
  /// Clean(). Graphs cost O(S) to build. PrivateTable is not
  /// thread-safe: concurrent queries on one instance would race on this
  /// cache unless WarmCaches() filled it first. (Intra-query parallelism
  /// via QueryOptions::exec is fine — the scan shards never touch the
  /// cache.)
  Result<const ProvenanceGraph*> ProvenanceFor(
      const std::string& attribute, const ExecutionOptions& exec = {}) const;

  /// The row index (table/row_index.h) of a discrete attribute of the
  /// current relation, built on first use and cached like the graphs:
  /// the pointer stays valid until the next Clean(). InvalidArgument for
  /// an attribute that is not discrete.
  Result<const RowIndex*> RowIndexFor(const std::string& attribute,
                                      const ExecutionOptions& exec = {}) const;

  /// Builds every lazily cached per-attribute state now: the provenance
  /// graph and the row index of each discrete attribute, the moments
  /// (μ_p, σ_p²) of each numeric-typed column, and the per-value sums of
  /// every (discrete attribute, numeric-typed column) pair. Afterwards no
  /// read-only query fills a cache, so concurrent queries on one instance
  /// are safe until the next Clean(). The server calls this when it opens
  /// a release.
  Status WarmCaches(const ExecutionOptions& exec = {}) const;

  /// The deterministic estimator inputs (p, l, N) PrivateClean would use
  /// for this predicate right now — exposed for tests and diagnostics.
  /// A non-null `matching_rows` receives the nominal count c_private:
  /// the summed row counts of the clean values the predicate matches; a
  /// non-null `matching_indices` receives those values (M_pred) as
  /// indices into the attribute's clean domain
  /// (ProvenanceFor(attribute)->clean_domain()), ascending.
  Result<EstimationInputs> InputsForPredicate(
      const Predicate& predicate, const std::string& numeric_attribute,
      const QueryOptions& options, size_t* matching_rows = nullptr,
      std::vector<size_t>* matching_indices = nullptr) const;

  PrivateTable(PrivateTable&&) = default;
  PrivateTable& operator=(PrivateTable&&) = default;

 private:
  PrivateTable() = default;

  /// What every corrected estimator on `attribute` starts from: its
  /// cached provenance graph, and in `*in` the p_eff of the randomized
  /// attribute anchoring it, N and the confidence. A Laplace-noised
  /// numeric attribute is a typed FailedPrecondition: it has no
  /// transition matrix, so no bias correction is possible.
  Result<const ProvenanceGraph*> EstimationBase(const std::string& attribute,
                                                const QueryOptions& options,
                                                EstimationInputs* in) const;

  /// The stats of a corrected Sum/Avg: the merge of the cached per-value
  /// sums of `m_pred` (clean indices of `key_attribute`, covering
  /// `m_pred_rows` rows) and its exact complement.
  Result<QueryScanStats> SumStats(const std::string& key_attribute,
                                  const std::string& numeric_attribute,
                                  const std::vector<size_t>& m_pred,
                                  size_t m_pred_rows,
                                  const ExecutionOptions& exec) const;

  /// Laplace scale b of `numeric_attribute` for the §10 var/std
  /// correction. InvalidArgument when the relation has no such attribute
  /// (a typo would otherwise surface only as a generic scan error);
  /// 0.0 — a documented no-op correction — when the attribute exists but
  /// carries no Laplace noise.
  Result<double> NoiseScaleFor(const std::string& numeric_attribute) const;

  /// Returns the (possibly cached) whole-column moments of
  /// `numeric_attribute` for the SUM/AVG intervals. Same lifecycle as
  /// the graph cache: built on first use or by WarmCaches(), dropped by
  /// Clean() — a ValueTransform can rewrite a numeric column.
  Result<NumericMoments> CachedMomentsFor(
      const std::string& numeric_attribute,
      const ExecutionOptions& exec = {}) const;

  /// Returns the (possibly cached) per-value sums of `numeric_attribute`
  /// over the discrete attribute `key_attribute`, keyed by the slots
  /// ProvenanceFor(key_attribute)->clean_slot() names. Same lifecycle as
  /// the moments cache.
  Result<const ValueSums*> CachedValueSumsFor(
      const std::string& key_attribute, const std::string& numeric_attribute,
      const ExecutionOptions& exec = {}) const;

  Table relation_;
  PrivateRelationMetadata metadata_;
  ProvenanceManager provenance_;
  mutable std::unordered_map<std::string, ProvenanceGraph> graph_cache_;
  mutable std::unordered_map<std::string, RowIndex> row_index_cache_;
  mutable std::unordered_map<std::string, NumericMoments> moments_cache_;
  /// Keyed by (key attribute, numeric attribute).
  mutable std::map<std::pair<std::string, std::string>, ValueSums>
      value_sums_cache_;
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_CORE_PRIVATE_TABLE_H_
