#include "core/private_table.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/exact_sum.h"
#include "privacy/allocation.h"

namespace privateclean {

Result<PrivateTable> PrivateTable::Create(const Table& original,
                                          const GrrParams& params,
                                          const GrrOptions& options,
                                          Rng& rng) {
  PCLEAN_ASSIGN_OR_RETURN(GrrOutput grr, ApplyGrr(original, params, options, rng));
  PrivateTable table;
  table.relation_ = std::move(grr.table);
  table.metadata_ = std::move(grr.metadata);
  // Anchor provenance in the randomization-time domains so N matches the
  // mechanism exactly.
  std::unordered_map<std::string, Domain> domains;
  for (const auto& [name, meta] : table.metadata_.discrete) {
    domains.emplace(name, meta.domain);
  }
  PCLEAN_ASSIGN_OR_RETURN(table.provenance_,
                          ProvenanceManager::Create(table.relation_, domains));
  return table;
}

Result<PrivateTable> PrivateTable::CreateWithTuning(const Table& original,
                                                    double max_count_error,
                                                    double confidence,
                                                    Rng& rng) {
  PCLEAN_ASSIGN_OR_RETURN(
      TuningResult tuning,
      TunePrivacyParameters(original, max_count_error, confidence));
  return Create(original, ToGrrParams(tuning), GrrOptions{}, rng);
}

Result<PrivateTable> PrivateTable::CreateWithEpsilonBudget(
    const Table& original, double total_epsilon, Rng& rng) {
  PCLEAN_ASSIGN_OR_RETURN(GrrParams params,
                          AllocateEpsilonBudget(original, total_epsilon));
  return Create(original, params, GrrOptions{}, rng);
}

Result<PrivateTable> PrivateTable::FromPrivateRelation(
    Table relation, PrivateRelationMetadata metadata) {
  const Schema& schema = relation.schema();
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.field(i);
    bool covered = field.kind == AttributeKind::kDiscrete
                       ? metadata.discrete.count(field.name) > 0
                       : metadata.numeric.count(field.name) > 0;
    if (!covered) {
      return Status::InvalidArgument(
          "metadata does not cover attribute '" + field.name + "'");
    }
  }
  PrivateTable table;
  table.relation_ = std::move(relation);
  table.metadata_ = std::move(metadata);
  table.metadata_.dataset_size = table.relation_.num_rows();
  std::unordered_map<std::string, Domain> domains;
  for (const auto& [name, meta] : table.metadata_.discrete) {
    domains.emplace(name, meta.domain);
  }
  PCLEAN_ASSIGN_OR_RETURN(table.provenance_,
                          ProvenanceManager::Create(table.relation_, domains));
  return table;
}

Status PrivateTable::Clean(const Cleaner& cleaner) {
  // Cleaning changes the dirty->clean mapping, and a ValueTransform can
  // rewrite a numeric column. Dropped up front, so a cleaner that fails
  // part-way leaves no stale entry either.
  graph_cache_.clear();
  row_index_cache_.clear();
  moments_cache_.clear();
  value_sums_cache_.clear();
  // The dirty side of every graph from now on: until this first clean,
  // the current columns were their own snapshot.
  PCLEAN_RETURN_NOT_OK(provenance_.SnapshotColumns(relation_));
  PCLEAN_RETURN_NOT_OK(cleaner.Apply(&relation_));
  if (auto extracted = cleaner.extracted_attribute(); extracted.has_value()) {
    PCLEAN_RETURN_NOT_OK(provenance_.RegisterDerivedAttribute(
        extracted->name, extracted->provenance_anchor));
  }
  return Status::OK();
}

Result<const ProvenanceGraph*> PrivateTable::ProvenanceFor(
    const std::string& attribute, const ExecutionOptions& exec) const {
  if (auto it = graph_cache_.find(attribute); it != graph_cache_.end()) {
    return &it->second;
  }
  PCLEAN_ASSIGN_OR_RETURN(ProvenanceGraph graph,
                          provenance_.GraphFor(relation_, attribute, exec));
  auto [it, inserted] = graph_cache_.emplace(attribute, std::move(graph));
  (void)inserted;
  return &it->second;
}

Result<const RowIndex*> PrivateTable::RowIndexFor(
    const std::string& attribute, const ExecutionOptions& exec) const {
  if (auto it = row_index_cache_.find(attribute);
      it != row_index_cache_.end()) {
    return &it->second;
  }
  PCLEAN_ASSIGN_OR_RETURN(Field field,
                          relation_.schema().FieldByName(attribute));
  if (field.kind != AttributeKind::kDiscrete) {
    return Status::InvalidArgument("no row index for attribute '" +
                                   attribute + "': it is not discrete");
  }
  PCLEAN_ASSIGN_OR_RETURN(const Column* column,
                          relation_.ColumnByName(attribute));
  PCLEAN_ASSIGN_OR_RETURN(RowIndex index,
                          BuildRowIndex(ColumnCodes(*column), exec));
  auto [it, inserted] = row_index_cache_.emplace(attribute, std::move(index));
  (void)inserted;
  return &it->second;
}

Result<NumericMoments> PrivateTable::CachedMomentsFor(
    const std::string& numeric_attribute, const ExecutionOptions& exec) const {
  if (auto it = moments_cache_.find(numeric_attribute);
      it != moments_cache_.end()) {
    return it->second;
  }
  PCLEAN_ASSIGN_OR_RETURN(
      NumericMoments moments,
      ComputeNumericMoments(relation_, numeric_attribute, exec));
  moments_cache_.emplace(numeric_attribute, moments);
  return moments;
}

Result<const ValueSums*> PrivateTable::CachedValueSumsFor(
    const std::string& key_attribute, const std::string& numeric_attribute,
    const ExecutionOptions& exec) const {
  auto key = std::make_pair(key_attribute, numeric_attribute);
  if (auto it = value_sums_cache_.find(key); it != value_sums_cache_.end()) {
    return &it->second;
  }
  PCLEAN_ASSIGN_OR_RETURN(
      ValueSums sums,
      ComputeValueSums(relation_, key_attribute, numeric_attribute, exec));
  auto [it, inserted] =
      value_sums_cache_.emplace(std::move(key), std::move(sums));
  (void)inserted;
  return &it->second;
}

Status PrivateTable::WarmCaches(const ExecutionOptions& exec) const {
  // Every attribute a read-only query can reach: a graph per discrete
  // attribute (predicates, GROUP BY) and its row index (two-attribute
  // COUNTs), moments per numeric-typed column (SUM/AVG —
  // ComputeNumericMoments accepts any non-string column), and per-value
  // sums per (discrete attribute, numeric-typed column).
  const Schema& schema = relation_.schema();
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.field(i);
    if (field.kind == AttributeKind::kDiscrete) {
      PCLEAN_RETURN_NOT_OK(ProvenanceFor(field.name, exec).status());
      PCLEAN_RETURN_NOT_OK(RowIndexFor(field.name, exec).status());
    }
    if (field.type != ValueType::kString) {
      PCLEAN_RETURN_NOT_OK(CachedMomentsFor(field.name, exec).status());
    }
  }
  for (size_t k = 0; k < schema.num_fields(); ++k) {
    const Field& key = schema.field(k);
    if (key.kind != AttributeKind::kDiscrete) continue;
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      if (schema.field(i).type == ValueType::kString) continue;
      PCLEAN_RETURN_NOT_OK(
          CachedValueSumsFor(key.name, schema.field(i).name, exec).status());
    }
  }
  return Status::OK();
}

Status PrivateTable::Clean(const CleaningPipeline& pipeline) {
  for (size_t i = 0; i < pipeline.size(); ++i) {
    Status st = Clean(pipeline.cleaner(i));
    if (!st.ok()) {
      return Status::Internal("pipeline stage " + std::to_string(i) + " (" +
                              pipeline.cleaner(i).name() +
                              ") failed: " + st.ToString());
    }
  }
  return Status::OK();
}

Result<const ProvenanceGraph*> PrivateTable::EstimationBase(
    const std::string& attribute, const QueryOptions& options,
    EstimationInputs* in) const {
  if (metadata_.numeric.count(attribute) > 0) {
    return Status::FailedPrecondition(
        "not privately answerable: predicate on numeric attribute '" +
        attribute +
        "' — the bias correction needs a discrete randomized attribute "
        "(Laplace-noised numerics have no transition matrix); use the Direct "
        "baseline or a predicate on a discrete attribute");
  }
  PCLEAN_ASSIGN_OR_RETURN(std::string anchor, provenance_.AnchorOf(attribute));
  auto meta_it = metadata_.discrete.find(anchor);
  if (meta_it == metadata_.discrete.end()) {
    return Status::FailedPrecondition(
        "attribute '" + attribute +
        "' is not backed by a randomized discrete attribute");
  }
  PCLEAN_ASSIGN_OR_RETURN(const ProvenanceGraph* graph,
                          ProvenanceFor(attribute, options.exec));
  PCLEAN_ASSIGN_OR_RETURN(
      in->p, ReplacementProbability(metadata_.mechanism, meta_it->second.p,
                                    meta_it->second.domain.size()));
  in->n = static_cast<double>(graph->num_dirty_values());
  in->confidence = options.confidence;
  return graph;
}

namespace {

/// The dirty-side selectivity l of M_pred: the weighted cut (PC-W, §7.2)
/// or the unweighted vertex count (PC-U, §6.3).
double Cut(const ProvenanceGraph& graph, const std::vector<size_t>& m_pred,
           bool weighted) {
  return weighted ? graph.WeightedSelectivity(m_pred)
                  : static_cast<double>(graph.UnweightedSelectivity(m_pred));
}

}  // namespace

Result<EstimationInputs> PrivateTable::InputsForPredicate(
    const Predicate& predicate, const std::string& numeric_attribute,
    const QueryOptions& options, size_t* matching_rows,
    std::vector<size_t>* matching_indices) const {
  EstimationInputs in;
  PCLEAN_ASSIGN_OR_RETURN(const ProvenanceGraph* graph,
                          EstimationBase(predicate.attribute(), options, &in));
  // M_pred, and the rows it covers: the clean domain carries every clean
  // value's row count.
  const Domain& clean_domain = graph->clean_domain();
  std::vector<size_t> m_pred;
  size_t m_pred_rows = 0;
  for (size_t i = 0; i < clean_domain.size(); ++i) {
    if (!predicate.Matches(clean_domain.value(i))) continue;
    m_pred.push_back(i);
    m_pred_rows += clean_domain.frequency(i);
  }
  in.l = Cut(*graph, m_pred, options.weighted_cut);
  if (auto it = metadata_.numeric.find(numeric_attribute);
      it != metadata_.numeric.end()) {
    in.b = it->second.b;
  }
  if (matching_rows != nullptr) *matching_rows = m_pred_rows;
  if (matching_indices != nullptr) *matching_indices = std::move(m_pred);
  return in;
}

Result<QueryScanStats> PrivateTable::SumStats(
    const std::string& key_attribute, const std::string& numeric_attribute,
    const std::vector<size_t>& m_pred, size_t m_pred_rows,
    const ExecutionOptions& exec) const {
  PCLEAN_ASSIGN_OR_RETURN(const ProvenanceGraph* graph,
                          ProvenanceFor(key_attribute, exec));
  PCLEAN_ASSIGN_OR_RETURN(
      const ValueSums* sums,
      CachedValueSumsFor(key_attribute, numeric_attribute, exec));
  PCLEAN_ASSIGN_OR_RETURN(NumericMoments moments,
                          CachedMomentsFor(numeric_attribute, exec));
  ExactSum matching;
  for (size_t i : m_pred) sums->sums.AddTo(graph->clean_slot(i), &matching);
  ExactSum complement = sums->total;
  complement.Subtract(matching);
  QueryScanStats stats;
  stats.total_rows = relation_.num_rows();
  stats.matching_rows = m_pred_rows;
  stats.matching_sum = matching.Round();
  stats.complement_sum = complement.Round();
  stats.matching_non_null = matching.count();
  stats.total_non_null = sums->total.count();
  stats.numeric_mean = moments.mean;
  stats.numeric_variance = moments.variance;
  return stats;
}

Result<QueryResult> PrivateTable::Count(const Predicate& predicate,
                                        const QueryOptions& options) const {
  // The nominal count needs no scan: it is the rows of M_pred.
  QueryScanStats stats;
  stats.total_rows = relation_.num_rows();
  PCLEAN_ASSIGN_OR_RETURN(
      EstimationInputs in,
      InputsForPredicate(predicate, "", options, &stats.matching_rows));
  PCLEAN_ASSIGN_OR_RETURN(QueryResult r, EstimateCount(stats, in));
  return r;
}

Result<QueryResult> PrivateTable::Sum(const std::string& numeric_attribute,
                                      const Predicate& predicate,
                                      const QueryOptions& options) const {
  std::vector<size_t> m_pred;
  size_t m_pred_rows = 0;
  PCLEAN_ASSIGN_OR_RETURN(
      EstimationInputs in,
      InputsForPredicate(predicate, numeric_attribute, options, &m_pred_rows,
                         &m_pred));
  PCLEAN_ASSIGN_OR_RETURN(QueryScanStats stats,
                          SumStats(predicate.attribute(), numeric_attribute,
                                   m_pred, m_pred_rows, options.exec));
  PCLEAN_ASSIGN_OR_RETURN(QueryResult r, EstimateSum(stats, in));
  return r;
}

Result<QueryResult> PrivateTable::Avg(const std::string& numeric_attribute,
                                      const Predicate& predicate,
                                      const QueryOptions& options) const {
  std::vector<size_t> m_pred;
  size_t m_pred_rows = 0;
  PCLEAN_ASSIGN_OR_RETURN(
      EstimationInputs in,
      InputsForPredicate(predicate, numeric_attribute, options, &m_pred_rows,
                         &m_pred));
  PCLEAN_ASSIGN_OR_RETURN(QueryScanStats stats,
                          SumStats(predicate.attribute(), numeric_attribute,
                                   m_pred, m_pred_rows, options.exec));
  PCLEAN_ASSIGN_OR_RETURN(QueryResult r, EstimateAvg(stats, in));
  return r;
}

Result<QueryResult> PrivateTable::CountConjunctive(
    const Predicate& cond_a, const Predicate& cond_b,
    const QueryOptions& options) const {
  PCLEAN_ASSIGN_OR_RETURN(EstimationInputs in_a,
                          InputsForPredicate(cond_a, "", options));
  PCLEAN_ASSIGN_OR_RETURN(EstimationInputs in_b,
                          InputsForPredicate(cond_b, "", options));
  PCLEAN_ASSIGN_OR_RETURN(const RowIndex* index_a,
                          RowIndexFor(cond_a.attribute(), options.exec));
  PCLEAN_ASSIGN_OR_RETURN(const RowIndex* index_b,
                          RowIndexFor(cond_b.attribute(), options.exec));
  PCLEAN_ASSIGN_OR_RETURN(
      ConjunctiveScanStats stats,
      CountConjunctiveQuadrants(relation_, cond_a, *index_a, cond_b,
                                *index_b, options.exec));
  PCLEAN_ASSIGN_OR_RETURN(QueryResult r,
                          EstimateConjunctiveCount(stats, in_a, in_b));
  return r;
}

Result<size_t> PrivateTable::CountMatchingBoth(
    const Predicate& cond_a, const Predicate& cond_b,
    const ExecutionOptions& exec) const {
  const RowIndex* indexes[2] = {nullptr, nullptr};
  const Predicate* sides[2] = {&cond_a, &cond_b};
  for (size_t i = 0; i < 2; ++i) {
    auto field = relation_.schema().FieldByName(sides[i]->attribute());
    if (field.ok() && field->kind == AttributeKind::kDiscrete) {
      PCLEAN_ASSIGN_OR_RETURN(indexes[i],
                              RowIndexFor(sides[i]->attribute(), exec));
    }
  }
  return privateclean::CountMatchingBoth(relation_, cond_a, indexes[0],
                                         cond_b, indexes[1], exec);
}

Result<std::vector<std::pair<Value, QueryResult>>>
PrivateTable::GroupByCountEstimate(const std::string& attribute,
                                   const QueryOptions& options) const {
  EstimationInputs in;
  PCLEAN_ASSIGN_OR_RETURN(const ProvenanceGraph* graph,
                          EstimationBase(attribute, options, &in));
  // Each group's nominal count is its clean value's row count.
  const Domain& clean_domain = graph->clean_domain();
  std::vector<std::pair<Value, QueryResult>> groups;
  groups.reserve(clean_domain.size());
  for (size_t i = 0; i < clean_domain.size(); ++i) {
    in.l = Cut(*graph, {i}, options.weighted_cut);
    QueryScanStats stats;
    stats.total_rows = relation_.num_rows();
    stats.matching_rows = clean_domain.frequency(i);
    PCLEAN_ASSIGN_OR_RETURN(QueryResult r, EstimateCount(stats, in));
    groups.emplace_back(clean_domain.value(i), std::move(r));
  }
  return groups;
}

Result<QueryResult> PrivateTable::Execute(const AggregateQuery& query,
                                          const QueryOptions& options) const {
  if (query.agg == AggregateType::kMin || query.agg == AggregateType::kMax) {
    return Status::FailedPrecondition(
        "not privately answerable: " +
        std::string(AggregateTypeToString(query.agg)) +
        "() reads an extreme value, which randomization destroys — no "
        "bias-corrected estimator exists (use the Direct baseline for a "
        "nominal value)");
  }
  if (query.agg != AggregateType::kCount &&
      query.agg != AggregateType::kSum && query.agg != AggregateType::kAvg) {
    return Status::InvalidArgument(
        "Execute supports sum/count/avg; use ExtendedAggregate for " +
        std::string(AggregateTypeToString(query.agg)));
  }
  if (query.predicate.has_value()) {
    switch (query.agg) {
      case AggregateType::kCount:
        return Count(*query.predicate, options);
      case AggregateType::kSum:
        return Sum(query.numeric_attribute, *query.predicate, options);
      default:
        return Avg(query.numeric_attribute, *query.predicate, options);
    }
  }

  // No predicate: the Direct estimate is unbiased (§5.1) — GRR noise is
  // zero-mean and randomized response permutes within the relation. The
  // interval reflects the Laplace noise added to the numeric attribute.
  PCLEAN_ASSIGN_OR_RETURN(double nominal,
                          ExecuteAggregate(relation_, query, options.exec));
  QueryResult r;
  r.estimator = EstimatorKind::kPrivateClean;
  r.estimate = nominal;
  r.nominal = nominal;
  r.confidence = options.confidence;
  r.s = relation_.num_rows();
  double b = 0.0;
  if (auto it = metadata_.numeric.find(query.numeric_attribute);
      it != metadata_.numeric.end()) {
    b = it->second.b;
  }
  PCLEAN_ASSIGN_OR_RETURN(double z, ZScoreForConfidence(options.confidence));
  double s = static_cast<double>(relation_.num_rows());
  double half = 0.0;
  if (query.agg == AggregateType::kSum) {
    half = z * std::sqrt(2.0 * s * b * b);  // Var(Σ Laplace) = 2Sb².
  } else if (query.agg == AggregateType::kAvg) {
    half = (s > 0.0) ? z * std::sqrt(2.0 * b * b / s) : 0.0;
  }
  r.ci = ConfidenceInterval{r.estimate - half, r.estimate + half};
  return r;
}

Result<QueryResult> PrivateTable::ExecuteDirect(
    const AggregateQuery& query, const QueryOptions& options) const {
  // Direct reads nominal values as they are, extremes included: the
  // whole point of the baseline.
  if (query.agg != AggregateType::kCount && query.agg != AggregateType::kSum &&
      query.agg != AggregateType::kAvg && query.agg != AggregateType::kMin &&
      query.agg != AggregateType::kMax) {
    return Status::InvalidArgument(
        "ExecuteDirect supports sum/count/avg aggregates");
  }
  PCLEAN_ASSIGN_OR_RETURN(double nominal,
                          ExecuteAggregate(relation_, query, options.exec));
  QueryResult r;
  r.estimator = EstimatorKind::kDirect;
  r.estimate = nominal;
  r.nominal = nominal;
  r.ci = ConfidenceInterval{nominal, nominal};
  r.s = relation_.num_rows();
  return r;
}

namespace {

/// Shared implementation of the §10 extension aggregates on an arbitrary
/// table (used by both the point estimate and the bootstrap replicates).
Result<double> ExtendedAggregateOnTable(const Table& table,
                                        const AggregateQuery& query,
                                        double b,
                                        const ExecutionOptions& exec) {
  switch (query.agg) {
    case AggregateType::kMedian:
    case AggregateType::kPercentile:
      // Laplace noise has zero median; the nominal value is a consistent
      // estimate (§10).
      return ExecuteAggregate(table, query, exec);
    case AggregateType::kVar:
    case AggregateType::kStd: {
      PCLEAN_ASSIGN_OR_RETURN(
          double nominal_var,
          ExecuteAggregate(table,
                           AggregateQuery{AggregateType::kVar,
                                          query.numeric_attribute,
                                          query.predicate, 50.0},
                           exec));
      // var(x + noise) = var(x) + 2b² for independent noise (§10).
      double corrected = std::max(0.0, nominal_var - 2.0 * b * b);
      return query.agg == AggregateType::kVar ? corrected
                                              : std::sqrt(corrected);
    }
    case AggregateType::kMin:
    case AggregateType::kMax:
      return Status::FailedPrecondition(
          "not privately answerable: " +
          std::string(AggregateTypeToString(query.agg)) +
          "() reads an extreme value, which randomization destroys — no "
          "bias-corrected estimator exists (use the Direct baseline for a "
          "nominal value)");
    default:
      return Status::InvalidArgument(
          "ExtendedAggregate handles median/percentile/var/std; use "
          "Execute for sum/count/avg");
  }
}

}  // namespace

Result<double> PrivateTable::NoiseScaleFor(
    const std::string& numeric_attribute) const {
  if (auto it = metadata_.numeric.find(numeric_attribute);
      it != metadata_.numeric.end()) {
    return it->second.b;  // b == 0 means "covered but un-noised".
  }
  if (!relation_.schema().FieldByName(numeric_attribute).ok()) {
    return Status::InvalidArgument(
        "extended aggregate attribute '" + numeric_attribute +
        "' does not exist in the private relation");
  }
  // Present in the relation but outside the Laplace metadata (e.g. a
  // discrete column): no noise was added, so no correction applies.
  return 0.0;
}

Result<double> PrivateTable::ExtendedAggregate(
    const AggregateQuery& query, const ExecutionOptions& exec) const {
  PCLEAN_ASSIGN_OR_RETURN(double b, NoiseScaleFor(query.numeric_attribute));
  return ExtendedAggregateOnTable(relation_, query, b, exec);
}

Result<QueryResult> PrivateTable::BootstrapExtendedAggregate(
    const AggregateQuery& query, Rng& rng, size_t replicates,
    double confidence, const ExecutionOptions& exec) const {
  if (replicates < 10) {
    return Status::InvalidArgument("need at least 10 bootstrap replicates");
  }
  if (!(confidence > 0.0 && confidence < 1.0)) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  const size_t rows = relation_.num_rows();
  if (rows == 0) {
    return Status::FailedPrecondition(
        "cannot bootstrap an empty private relation");
  }
  PCLEAN_ASSIGN_OR_RETURN(double point, ExtendedAggregate(query, exec));
  PCLEAN_ASSIGN_OR_RETURN(double b, NoiseScaleFor(query.numeric_attribute));

  // One RNG stream per replicate, forked in replicate-index order (the
  // shard-indexed scheme of ApplyGrr, at replicate granularity): stream
  // assignment depends only on the replicate count, never on the thread
  // count or on how many replicates turn out degenerate.
  std::vector<Rng> replicate_rngs = rng.ForkStreams(replicates);
  std::vector<double> values(replicates, 0.0);
  std::vector<uint8_t> succeeded(replicates, 0);
  const size_t shards = ShardCountForCoarseItems(replicates);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      replicates, shards, exec,
      [&](size_t, size_t begin, size_t end) -> Status {
        // One resample index buffer per shard, reused across its
        // replicates. Replicates run their row passes inline (default
        // ExecutionOptions): the replicate axis is already parallel.
        std::vector<size_t> indices(rows);
        for (size_t rep = begin; rep < end; ++rep) {
          // A stack copy: every draw writes the generator's state, and
          // adjacent replicates' streams share a cache line.
          Rng rep_rng = replicate_rngs[rep];
          for (size_t i = 0; i < rows; ++i) {
            indices[i] = static_cast<size_t>(rep_rng.UniformInt(rows));
          }
          PCLEAN_ASSIGN_OR_RETURN(Table resampled, relation_.Take(indices));
          auto value =
              ExtendedAggregateOnTable(resampled, query, b, ExecutionOptions{});
          if (!value.ok()) continue;  // Degenerate resample (e.g. empty group).
          values[rep] = *value;
          succeeded[rep] = 1;
        }
        return Status::OK();
      }));

  // Merge surviving replicate values in replicate order.
  std::vector<double> replicate_values;
  replicate_values.reserve(replicates);
  for (size_t rep = 0; rep < replicates; ++rep) {
    if (succeeded[rep]) replicate_values.push_back(values[rep]);
  }
  // At least half of the requested replicates must survive, rounding the
  // threshold *up* for odd counts (2·size < replicates ⇔ size < ⌈replicates/2⌉).
  if (2 * replicate_values.size() < replicates) {
    return Status::FailedPrecondition(
        "too many degenerate bootstrap replicates: " +
        std::to_string(replicate_values.size()) + " of " +
        std::to_string(replicates) + " succeeded");
  }
  const size_t effective = replicate_values.size();
  double alpha = (1.0 - confidence) / 2.0;
  PCLEAN_ASSIGN_OR_RETURN(
      PercentileEndpoints endpoints,
      PercentilePair(std::move(replicate_values), 100.0 * alpha,
                     100.0 * (1.0 - alpha)));
  QueryResult result;
  result.estimator = EstimatorKind::kPrivateClean;
  result.estimate = point;
  result.ci = ConfidenceInterval{endpoints.lo, endpoints.hi};
  result.confidence = confidence;
  result.nominal = point;
  result.s = rows;
  result.replicates_requested = replicates;
  result.replicates_effective = effective;
  return result;
}

}  // namespace privateclean
