#include "core/sql_execution.h"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <utility>

#include "common/string_util.h"

#include "common/random.h"
#include "query/vectorized.h"

namespace privateclean {

namespace {

bool IsExtensionAggregate(AggregateType agg) {
  return agg == AggregateType::kMedian || agg == AggregateType::kVar ||
         agg == AggregateType::kStd || agg == AggregateType::kPercentile;
}

QueryResult PointResult(double value, EstimatorKind kind, size_t s) {
  QueryResult r;
  r.estimator = kind;
  r.estimate = value;
  r.nominal = value;
  r.ci = ConfidenceInterval{value, value};
  r.s = s;
  return r;
}

std::string UpperAggName(AggregateType agg) {
  std::string s = AggregateTypeToString(agg);
  for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

/// ORDER BY / LIMIT shaping of grouped rows. stable_sort keeps the
/// estimator's first-appearance order on ties, so shaping is
/// deterministic.
void ShapeRows(const ParsedSql& parsed, std::vector<SqlRow>* rows) {
  if (parsed.order_by.has_value()) {
    const SqlOrderBy order = *parsed.order_by;
    std::stable_sort(
        rows->begin(), rows->end(), [order](const SqlRow& a, const SqlRow& b) {
          if (order.by_estimate) {
            return order.descending ? a.result.estimate > b.result.estimate
                                    : a.result.estimate < b.result.estimate;
          }
          return order.descending ? *b.group < *a.group : *a.group < *b.group;
        });
  }
  if (parsed.limit.has_value() && rows->size() > *parsed.limit) {
    rows->resize(*parsed.limit);
  }
}

SqlResultSet ScalarResult(QueryResult r) {
  SqlResultSet rs;
  rs.rows.push_back(SqlRow{std::nullopt, std::move(r)});
  return rs;
}

bool IsDiscrete(const Table& relation, const std::string& attribute) {
  auto field = relation.schema().FieldByName(attribute);
  return field.ok() && field->kind == AttributeKind::kDiscrete;
}

/// The FROM name must match the relation the table was opened as. An
/// unnamed table (in-process PrivateTable::Create) accepts any
/// spelling; a release validates against its MANIFEST `relation:` name.
Status CheckRelationName(const PrivateTable& table, const ParsedSql& parsed) {
  const std::string& expected = table.metadata().relation_name;
  if (expected.empty() || parsed.table_name == expected) return Status::OK();
  return Status::NotFound("unknown relation '" + parsed.table_name +
                          "' in FROM: this release serves relation '" +
                          expected + "'");
}

}  // namespace

Result<SqlResultSet> ExecuteSqlQuery(const PrivateTable& table,
                                     const std::string& sql,
                                     const QueryOptions& options) {
  PCLEAN_ASSIGN_OR_RETURN(ParsedSql parsed, ParseSql(sql));
  PCLEAN_RETURN_NOT_OK(CheckRelationName(table, parsed));
  if (parsed.count_distinct) {
    return Status::FailedPrecondition(
        "not privately answerable: COUNT(DISTINCT " +
        parsed.distinct_attribute +
        ") — GRR spreads rows across the whole domain, so the nominal "
        "distinct count concentrates at the public domain size regardless "
        "of the data");
  }
  if (parsed.select_distinct) {
    return Status::FailedPrecondition(
        "not privately answerable: SELECT DISTINCT " +
        parsed.distinct_attribute +
        " — under GRR nearly every domain value appears in the nominal "
        "relation, so the distinct set reflects the public domain, not "
        "the data (the Direct baseline reports the nominal set)");
  }
  if (parsed.query.agg == AggregateType::kMin ||
      parsed.query.agg == AggregateType::kMax) {
    return Status::FailedPrecondition(
        "not privately answerable: " + UpperAggName(parsed.query.agg) + "(" +
        parsed.query.numeric_attribute +
        ") — extreme values are destroyed by randomization; no "
        "bias-corrected estimator exists (the Direct baseline reports the "
        "nominal extreme)");
  }
  if (!parsed.group_by.empty()) {
    if (parsed.where.has_value()) {
      return Status::FailedPrecondition(
          "not privately answerable: GROUP BY with WHERE — the per-group "
          "correction (§8.3.4) is derived for whole-relation counts");
    }
    if (parsed.query.agg != AggregateType::kCount) {
      return Status::FailedPrecondition(
          "not privately answerable: GROUP BY with " +
          UpperAggName(parsed.query.agg) +
          "(...) — the grouped estimator is derived for COUNT only "
          "(§8.3.4)");
    }
    PCLEAN_ASSIGN_OR_RETURN(auto groups,
                            table.GroupByCountEstimate(parsed.group_by,
                                                       options));
    SqlResultSet rs;
    rs.grouped = true;
    rs.rows.reserve(groups.size());
    for (auto& [key, result] : groups) {
      rs.rows.push_back(SqlRow{key, std::move(result)});
    }
    ShapeRows(parsed, &rs.rows);
    return rs;
  }
  if (parsed.where.has_value() && !parsed.query.predicate.has_value()) {
    // ParseSql accepted a WHERE tree it could not plan (pure syntax is
    // broader than the estimators); re-plan to surface the typed
    // "not privately answerable" error.
    PCLEAN_ASSIGN_OR_RETURN(WherePlan plan,
                            PlanWhere(*parsed.where, parsed.query.agg));
    parsed.query.predicate = std::move(plan.predicate);
    parsed.conjunct = std::move(plan.conjunct);
  }
  if (parsed.conjunct.has_value()) {
    PCLEAN_ASSIGN_OR_RETURN(
        QueryResult r, table.CountConjunctive(*parsed.query.predicate,
                                              *parsed.conjunct, options));
    return ScalarResult(std::move(r));
  }
  if (IsExtensionAggregate(parsed.query.agg)) {
    if (options.bootstrap_replicates > 0) {
      // Bootstrap percentile interval (§10); the replicate loop shards
      // per options.exec with a replicate-forked RNG stream, so the
      // interval is identical at every thread count.
      Rng rng(options.bootstrap_seed);
      PCLEAN_ASSIGN_OR_RETURN(
          QueryResult r,
          table.BootstrapExtendedAggregate(
              parsed.query, rng, options.bootstrap_replicates,
              options.confidence, options.exec));
      return ScalarResult(std::move(r));
    }
    PCLEAN_ASSIGN_OR_RETURN(
        double value, table.ExtendedAggregate(parsed.query, options.exec));
    return ScalarResult(
        PointResult(value, EstimatorKind::kPrivateClean, table.size()));
  }
  PCLEAN_ASSIGN_OR_RETURN(QueryResult r,
                          table.Execute(parsed.query, options));
  return ScalarResult(std::move(r));
}

Result<SqlResultSet> ExecuteSqlQueryDirect(const PrivateTable& table,
                                           const std::string& sql,
                                           const ExecutionOptions& exec) {
  PCLEAN_ASSIGN_OR_RETURN(ParsedSql parsed, ParseSql(sql));
  PCLEAN_RETURN_NOT_OK(CheckRelationName(table, parsed));
  const Table& relation = table.relation();
  if (parsed.count_distinct) {
    // Nominal distinct-value count (NULL counts as its own value iff
    // present, matching GroupByCount's bucketing).
    PCLEAN_ASSIGN_OR_RETURN(
        auto groups, GroupByCount(relation, parsed.distinct_attribute));
    return ScalarResult(PointResult(static_cast<double>(groups.size()),
                                    EstimatorKind::kDirect, table.size()));
  }
  if (parsed.select_distinct || !parsed.group_by.empty()) {
    const std::string& attr = parsed.select_distinct
                                  ? parsed.distinct_attribute
                                  : parsed.group_by;
    if (!parsed.group_by.empty() &&
        parsed.query.agg != AggregateType::kCount) {
      return Status::InvalidArgument(
          "Direct GROUP BY supports COUNT only (got " +
          UpperAggName(parsed.query.agg) + ")");
    }
    std::vector<uint8_t> mask;
    if (parsed.where.has_value()) {
      PCLEAN_ASSIGN_OR_RETURN(
          CompiledPredicate predicate,
          CompiledPredicate::Compile(relation, *parsed.where));
      PCLEAN_ASSIGN_OR_RETURN(
          mask, predicate.EvaluateAll(relation.num_rows(), exec));
    }
    PCLEAN_ASSIGN_OR_RETURN(auto counts, GroupByCount(relation, attr, mask));
    SqlResultSet rs;
    rs.grouped = true;
    rs.rows.reserve(counts.size());
    for (const auto& [key, n] : counts) {
      rs.rows.push_back(SqlRow{
          key, PointResult(static_cast<double>(n), EstimatorKind::kDirect,
                           table.size())});
    }
    ShapeRows(parsed, &rs.rows);
    return rs;
  }
  if (parsed.conjunct.has_value() &&
      (IsDiscrete(relation, parsed.query.predicate->attribute()) ||
       IsDiscrete(relation, parsed.conjunct->attribute()))) {
    // Nominal conjunctive count through the row index of a discrete
    // side, no correction.
    PCLEAN_ASSIGN_OR_RETURN(
        size_t both, table.CountMatchingBoth(*parsed.query.predicate,
                                             *parsed.conjunct, exec));
    return ScalarResult(PointResult(static_cast<double>(both),
                                    EstimatorKind::kDirect, table.size()));
  }
  if (parsed.where.has_value() &&
      (parsed.conjunct.has_value() || !parsed.query.predicate.has_value())) {
    // A WHERE tree beyond the private planner (e.g. OR across
    // attributes), or a conjunct with no discrete side: Direct just
    // evaluates it — compile the whole tree to a vectorized mask and
    // aggregate nominally.
    PCLEAN_ASSIGN_OR_RETURN(
        CompiledPredicate predicate,
        CompiledPredicate::Compile(relation, *parsed.where));
    PCLEAN_ASSIGN_OR_RETURN(
        double value,
        ExecuteAggregate(relation, parsed.query, predicate, exec));
    return ScalarResult(
        PointResult(value, EstimatorKind::kDirect, table.size()));
  }
  if (IsExtensionAggregate(parsed.query.agg)) {
    // Nominal extension aggregate straight off the private relation.
    PCLEAN_ASSIGN_OR_RETURN(
        double value, ExecuteAggregate(relation, parsed.query, exec));
    return ScalarResult(
        PointResult(value, EstimatorKind::kDirect, table.size()));
  }
  QueryOptions options;
  options.exec = exec;
  PCLEAN_ASSIGN_OR_RETURN(QueryResult r,
                          table.ExecuteDirect(parsed.query, options));
  return ScalarResult(std::move(r));
}

void RenderSqlResultText(const SqlResultSet& rs, bool direct,
                         double confidence, std::ostream& out) {
  if (direct) {
    if (rs.grouped) {
      // Group keys render as SQL literals, so NULL and '' stay distinct.
      for (const SqlRow& row : rs.rows) {
        out << RenderSqlLiteral(*row.group) << ": "
            << FormatDouble(row.result.estimate) << "\n";
      }
      return;
    }
    out << "direct: " << FormatDouble(rs.rows.front().result.estimate)
        << "\n";
    return;
  }
  if (rs.grouped) {
    for (const SqlRow& row : rs.rows) {
      out << RenderSqlLiteral(*row.group) << ": "
          << FormatDouble(row.result.estimate) << " CI: ["
          << FormatDouble(row.result.ci.lo) << ", "
          << FormatDouble(row.result.ci.hi) << "]\n";
    }
    return;
  }
  const QueryResult& r = rs.rows.front().result;
  out << "estimate: " << FormatDouble(r.estimate) << "\n";
  if (r.ci.Width() > 0.0) {
    out << FormatDouble(confidence * 100) << "% CI: ["
        << FormatDouble(r.ci.lo) << ", " << FormatDouble(r.ci.hi) << "]\n";
  }
  if (r.replicates_requested > 0) {
    // Degenerate resamples drop out of the interval; surface the count
    // so a thinned interval is visible to the analyst.
    out << "bootstrap replicates: " << r.replicates_effective << "/"
        << r.replicates_requested << "\n";
  }
}

Result<QueryResult> ExecuteSql(const PrivateTable& table,
                               const std::string& sql,
                               const QueryOptions& options) {
  PCLEAN_ASSIGN_OR_RETURN(SqlResultSet rs, ExecuteSqlQuery(table, sql, options));
  if (rs.grouped) {
    return Status::InvalidArgument(
        "query returns " + std::to_string(rs.rows.size()) +
        " grouped rows; use ExecuteSqlQuery for GROUP BY / SELECT DISTINCT");
  }
  return std::move(rs.rows.front().result);
}

Result<QueryResult> ExecuteSqlDirect(const PrivateTable& table,
                                     const std::string& sql,
                                     const ExecutionOptions& exec) {
  PCLEAN_ASSIGN_OR_RETURN(SqlResultSet rs,
                          ExecuteSqlQueryDirect(table, sql, exec));
  if (rs.grouped) {
    return Status::InvalidArgument(
        "query returns " + std::to_string(rs.rows.size()) +
        " grouped rows; use ExecuteSqlQueryDirect for GROUP BY / SELECT "
        "DISTINCT");
  }
  return std::move(rs.rows.front().result);
}

}  // namespace privateclean
