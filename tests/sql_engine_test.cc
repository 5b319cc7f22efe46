// Differential and statistical acceptance suite for the vectorized batch
// engine behind the SQL layer.
//
// sql_test.cc proves the grammar parses and routes; this file proves the
// engine underneath is *correct*:
//   - differential: CompiledPredicate's batched kernels (dictionary
//     gather, typed numeric loops, mask combination) must agree row for
//     row with a naive boxed reference that re-evaluates every Predicate
//     / SqlExpr per row — on a table large enough to cross shard and
//     batch boundaries, with NULLs in every column.
//   - determinism: masks, aggregates, and grouped SQL results must be
//     bit-identical at 1, 2 and 8 threads (the batch size is a constant,
//     never a function of the thread count).
//   - statistical: the new SQL forms (range predicates, boolean trees,
//     GROUP BY) must produce *bias-corrected* estimates — fixed-seed
//     runs land within the reported confidence interval of ground truth,
//     where the uncorrected Direct reading is far outside it.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/privateclean.h"
#include "exact_sum_reference.h"

namespace privateclean {
namespace {

// ---------------------------------------------------------------------------
// Fixed-seed table: three columns (string with NULLs, int64, double with
// NULLs), 40000 rows — more than two kRowsPerShard shards, each spanning
// many kVectorBatchRows batches plus a ragged tail batch.
// ---------------------------------------------------------------------------

constexpr size_t kRows = 40000;

Table RandomTable() {
  Schema schema = *Schema::Make(
      {Field::Discrete("city"),
       Field::Numerical("age", ValueType::kInt64),
       Field::Numerical("score", ValueType::kDouble)});
  TableBuilder builder(schema);
  Rng rng(20260808);
  const std::vector<std::string> cities = {"Berkeley", "Boston", "Chicago",
                                           "Detroit",  "",       "Austin"};
  for (size_t r = 0; r < kRows; ++r) {
    Value city = rng.Bernoulli(0.05)
                     ? Value::Null()
                     : Value(cities[rng.UniformInt(cities.size())]);
    Value age(rng.UniformIntRange(18, 90));
    Value score = rng.Bernoulli(0.03)
                      ? Value::Null()
                      : Value(rng.UniformRealRange(0.0, 10.0));
    builder.Row({city, age, score});
  }
  return *builder.Finish();
}

const Table& SharedTable() {
  static const Table table = RandomTable();
  return table;
}

// Naive reference: one boxed Matches call per row, no batching, no
// dictionary gather, no typed kernels.
std::vector<uint8_t> ReferenceMask(const Table& table, const Predicate& pred) {
  const Column& col = **table.ColumnByName(pred.attribute());
  std::vector<uint8_t> mask(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    mask[r] = pred.Matches(col.ValueAt(r)) ? 1 : 0;
  }
  return mask;
}

bool ReferenceExprMatchesRow(const Table& table, const SqlExpr& expr,
                             size_t row) {
  switch (expr.kind) {
    case SqlExpr::Kind::kCondition: {
      const Column& col = **table.ColumnByName(expr.condition.attribute);
      return SqlConditionMatches(expr.condition, col.ValueAt(row));
    }
    case SqlExpr::Kind::kNot:
      return !ReferenceExprMatchesRow(table, expr.children[0], row);
    case SqlExpr::Kind::kAnd:
      for (const SqlExpr& child : expr.children) {
        if (!ReferenceExprMatchesRow(table, child, row)) return false;
      }
      return true;
    case SqlExpr::Kind::kOr:
      for (const SqlExpr& child : expr.children) {
        if (ReferenceExprMatchesRow(table, child, row)) return true;
      }
      return false;
  }
  return false;
}

std::vector<uint8_t> ReferenceMask(const Table& table, const SqlExpr& expr) {
  std::vector<uint8_t> mask(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    mask[r] = ReferenceExprMatchesRow(table, expr, r) ? 1 : 0;
  }
  return mask;
}

size_t CountMask(const std::vector<uint8_t>& mask) {
  size_t n = 0;
  for (uint8_t m : mask) n += m;
  return n;
}

// WHERE trees, parsed from SQL so the battery also covers the planner's
// retained-tree representation: single- and multi-attribute AND/OR/NOT
// mask combination, ranges, IN, IS NULL.
std::vector<std::string> TreeBattery() {
  return {
      "age >= 30 AND age < 60",
      "city = 'Boston' OR city = 'Austin'",
      "NOT (age < 25 OR age > 80)",
      "city = 'Boston' AND score >= 5.0",
      "(age >= 30 AND age < 60) OR (city = 'Chicago' AND score < 2.5)",
      "NOT (city = 'Detroit' AND age >= 40)",
      "city IS NULL OR score IS NULL",
      "city IS NOT NULL AND city != ''",
      "age IN (20, 30, 40) AND score IS NOT NULL",
      "NOT city = 'Boston' AND NOT city = 'Austin' AND age <= 50",
      "score > 2.5 AND score <= 7.5 AND city >= 'B' AND city < 'D'",
      "score >= 2.5 AND score < 7.5",
      "score IS NULL OR score > 9.0",
      "NOT (score < 1.0 OR score IS NULL)",
      "age IN (20, 30, 40) OR age >= 85",
      "age > 20.5 AND NOT age IN (30, 31)",
  };
}

Result<SqlExpr> ParseWhere(const std::string& condition) {
  PCLEAN_ASSIGN_OR_RETURN(
      ParsedSql parsed,
      ParseSql("SELECT count(1) FROM t WHERE " + condition));
  return *parsed.where;
}

// The predicate battery: every kernel the compiler can pick — string
// dictionary match tables (equals/in/null/udf/negate), typed int64 and
// double comparison loops for every operator, membership over numerics,
// collapsed single-attribute trees, and UDF fallback on a numeric column.
std::vector<Predicate> PredicateBattery() {
  std::vector<Predicate> battery;
  battery.push_back(Predicate::Equals("city", Value("Boston")));
  battery.push_back(Predicate::Equals("city", Value("")));
  battery.push_back(Predicate::Equals("city", Value::Null()));
  battery.push_back(Predicate::Equals("city", Value("Nowhere")));
  battery.push_back(
      Predicate::In("city", {Value("Austin"), Value("Chicago"), Value("")}));
  battery.push_back(Predicate::IsNull("city"));
  battery.push_back(Predicate::IsNotNull("score"));
  battery.push_back(
      Predicate::Equals("city", Value("Detroit")).Negate());
  battery.push_back(
      Predicate::Udf("city", [](const Value& v) {
        return !v.is_null() && !v.ToString().empty() &&
               v.ToString()[0] == 'B';
      }));
  for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                       CompareOp::kGe, CompareOp::kEq, CompareOp::kNe}) {
    battery.push_back(Predicate::Compare("age", op, Value(int64_t{40})));
    battery.push_back(Predicate::Compare("score", op, Value(5.0)));
  }
  // int64 column against a double bound: promotion path.
  battery.push_back(Predicate::Compare("age", CompareOp::kLt, Value(40.5)));
  battery.push_back(
      Predicate::Compare("age", CompareOp::kGe, Value(40.5)).Negate());
  // String ordering: lexicographic comparison kernel.
  battery.push_back(
      Predicate::Compare("city", CompareOp::kGe, Value("Boston")));
  battery.push_back(
      Predicate::In("age", {Value(int64_t{20}), Value(int64_t{30}),
                            Value(int64_t{77})}));
  battery.push_back(Predicate::Udf("score", [](const Value& v) {
    return !v.is_null() && std::fmod(v.AsDouble(), 1.0) < 0.25;
  }));
  // Every single-attribute WHERE tree in the form the scans receive it:
  // collapsed to one Predicate (the tree's typed kernels on a numeric
  // column, the match table on a string one), plain and negated, so
  // NULL rows under negation are pinned too.
  for (const std::string& condition : TreeBattery()) {
    SqlExpr expr = *ParseWhere(condition);
    if (SqlExprAttributes(expr).size() != 1) continue;
    Predicate collapsed = *CollapseSingleAttribute(expr);
    battery.push_back(collapsed);
    battery.push_back(collapsed.Negate());
  }
  return battery;
}

// ---------------------------------------------------------------------------
// Differential: vectorized vs boxed row loop
// ---------------------------------------------------------------------------

TEST(SqlEngineDifferentialTest, PredicateKernelsMatchBoxedRowLoop) {
  const Table& table = SharedTable();
  size_t index = 0;
  for (const Predicate& pred : PredicateBattery()) {
    SCOPED_TRACE("predicate #" + std::to_string(index++) + " on " +
                 pred.attribute());
    std::vector<uint8_t> expected = ReferenceMask(table, pred);
    auto compiled = CompiledPredicate::Compile(table, pred);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::vector<uint8_t> got = *compiled->EvaluateAll(table.num_rows());
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(0, std::memcmp(got.data(), expected.data(), got.size()))
        << "mask mismatch (" << CountMask(got) << " vs "
        << CountMask(expected) << " matching rows)";
  }
}

TEST(SqlEngineDifferentialTest, WhereTreeMasksMatchRecursiveReference) {
  const Table& table = SharedTable();
  for (const std::string& condition : TreeBattery()) {
    SCOPED_TRACE("WHERE " + condition);
    auto expr = ParseWhere(condition);
    ASSERT_TRUE(expr.ok()) << expr.status().ToString();
    std::vector<uint8_t> expected = ReferenceMask(table, *expr);
    auto compiled = CompiledPredicate::Compile(table, *expr);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::vector<uint8_t> got = *compiled->EvaluateAll(table.num_rows());
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(0, std::memcmp(got.data(), expected.data(), got.size()))
        << "mask mismatch (" << CountMask(got) << " vs "
        << CountMask(expected) << " matching rows)";
  }
}

TEST(SqlEngineDifferentialTest, AggregatesMatchBoxedRowLoop) {
  // COUNT and SUM re-derived from the reference mask and boxed getters;
  // the vectorized count must agree exactly, and so must the sum: it is
  // the correctly rounded exact sum, whatever the shard layout, so it
  // equals the big-integer reference bit for bit.
  const Table& table = SharedTable();
  const Column& score = **table.ColumnByName("score");
  for (const std::string& condition : TreeBattery()) {
    SCOPED_TRACE("WHERE " + condition);
    SqlExpr expr = *ParseWhere(condition);
    std::vector<uint8_t> mask = ReferenceMask(table, expr);
    double ref_count = static_cast<double>(CountMask(mask));
    std::vector<double> matching;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (mask[r] && !score.IsNull(r)) matching.push_back(score.DoubleAt(r));
    }
    const double ref_sum = testing_reference::ReferenceExactSum(matching);
    CompiledPredicate compiled = *CompiledPredicate::Compile(table, expr);
    AggregateQuery count_query;
    count_query.agg = AggregateType::kCount;
    EXPECT_EQ(*ExecuteAggregate(table, count_query, compiled), ref_count);
    AggregateQuery sum_query;
    sum_query.agg = AggregateType::kSum;
    sum_query.numeric_attribute = "score";
    auto sum = ExecuteAggregate(table, sum_query, compiled);
    ASSERT_TRUE(sum.ok()) << sum.status().ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(*sum), std::bit_cast<uint64_t>(ref_sum))
        << *sum << " vs " << ref_sum;
  }
}

// ---------------------------------------------------------------------------
// Determinism: bit-identical at 1, 2 and 8 threads
// ---------------------------------------------------------------------------

TEST(SqlEngineDeterminismTest, MasksAreBitIdenticalAcrossThreadCounts) {
  const Table& table = SharedTable();
  auto expect_thread_independent = [&](const CompiledPredicate& compiled) {
    ExecutionOptions one;
    one.num_threads = 1;
    std::vector<uint8_t> baseline =
        *compiled.EvaluateAll(table.num_rows(), one);
    for (size_t threads : {2u, 8u}) {
      ExecutionOptions exec;
      exec.num_threads = threads;
      std::vector<uint8_t> mask =
          *compiled.EvaluateAll(table.num_rows(), exec);
      EXPECT_EQ(0,
                std::memcmp(mask.data(), baseline.data(), baseline.size()))
          << "thread count " << threads << " changed the mask";
    }
  };
  for (const std::string& condition : TreeBattery()) {
    SCOPED_TRACE("WHERE " + condition);
    expect_thread_independent(
        *CompiledPredicate::Compile(table, *ParseWhere(condition)));
  }
  size_t index = 0;
  for (const Predicate& pred : PredicateBattery()) {
    SCOPED_TRACE("predicate #" + std::to_string(index++) + " on " +
                 pred.attribute());
    expect_thread_independent(*CompiledPredicate::Compile(table, pred));
  }
}

TEST(SqlEngineDeterminismTest, AggregatesAreBitIdenticalAcrossThreadCounts) {
  // EXPECT_EQ on doubles, not EXPECT_NEAR: merging per-shard partials in
  // shard index order must make even the floating-point results exact
  // across thread counts (the shard layout depends only on the row count).
  const Table& table = SharedTable();
  CompiledPredicate compiled = *CompiledPredicate::Compile(
      table, *ParseWhere("age >= 30 AND age < 60"));
  for (AggregateType agg :
       {AggregateType::kCount, AggregateType::kSum, AggregateType::kAvg,
        AggregateType::kVar, AggregateType::kStd, AggregateType::kMedian,
        AggregateType::kMin, AggregateType::kMax}) {
    SCOPED_TRACE(AggregateTypeToString(agg));
    AggregateQuery query;
    query.agg = agg;
    query.numeric_attribute = "score";
    ExecutionOptions one;
    one.num_threads = 1;
    double baseline = *ExecuteAggregate(table, query, compiled, one);
    for (size_t threads : {2u, 8u}) {
      ExecutionOptions exec;
      exec.num_threads = threads;
      EXPECT_EQ(*ExecuteAggregate(table, query, compiled, exec), baseline)
          << "thread count " << threads << " changed the result";
    }
  }
}

TEST(SqlEngineDeterminismTest, GroupedSqlResultsAreBitIdentical) {
  // End to end through the private path: same seed, different thread
  // counts, identical grouped rows (keys, estimates, and CIs).
  Rng rng(77);
  Table table = RandomTable();
  PrivateTable pt = *PrivateTable::Create(
      table, GrrParams::Uniform(0.1, 1.0), GrrOptions{}, rng);
  const std::string sql =
      "SELECT count(1) FROM t GROUP BY city ORDER BY count(1) DESC LIMIT 4";
  QueryOptions one;
  one.exec.num_threads = 1;
  SqlResultSet baseline = *ExecuteSqlQuery(pt, sql, one);
  ASSERT_TRUE(baseline.grouped);
  ASSERT_EQ(baseline.rows.size(), 4u);
  for (size_t threads : {2u, 8u}) {
    QueryOptions options;
    options.exec.num_threads = threads;
    SqlResultSet got = *ExecuteSqlQuery(pt, sql, options);
    ASSERT_EQ(got.rows.size(), baseline.rows.size());
    for (size_t i = 0; i < got.rows.size(); ++i) {
      SCOPED_TRACE("row " + std::to_string(i) + " at " +
                   std::to_string(threads) + " threads");
      EXPECT_EQ(RenderSqlLiteral(*got.rows[i].group),
                RenderSqlLiteral(*baseline.rows[i].group));
      EXPECT_EQ(got.rows[i].result.estimate, baseline.rows[i].result.estimate);
      EXPECT_EQ(got.rows[i].result.ci.lo, baseline.rows[i].result.ci.lo);
      EXPECT_EQ(got.rows[i].result.ci.hi, baseline.rows[i].result.ci.hi);
    }
  }
}

// ---------------------------------------------------------------------------
// Statistical: new SQL forms produce bias-corrected estimates
// ---------------------------------------------------------------------------

// Skewed categories so the GRR bias is large enough to separate the
// corrected estimator from the uncorrected Direct reading.
Table SkewedCategoryTable() {
  const std::vector<size_t> counts = {6000, 4000, 2500, 1500, 800, 200};
  Schema schema = *Schema::Make({Field::Discrete("category")});
  TableBuilder builder(schema);
  for (size_t j = 0; j < counts.size(); ++j) {
    for (size_t k = 0; k < counts[j]; ++k) {
      builder.Row({Value("c" + std::to_string(j))});
    }
  }
  return *builder.Finish();
}

TEST(SqlEngineStatisticalTest, RangeCountIsBiasCorrected) {
  // SELECT count(1) WHERE category >= 'c4' selects the two rarest
  // categories (1000 of 15000 rows). Uniform redraws inflate the nominal
  // count towards S·|M_pred|/N; the corrected estimate must land inside
  // its own CI around ground truth while Direct stays far outside.
  Table table = SkewedCategoryTable();
  double truth = *ExecuteAggregate(
      table, AggregateQuery::Count(
                 Predicate::Compare("category", CompareOp::kGe, Value("c4"))));
  ASSERT_EQ(truth, 1000.0);

  Rng rng(42);
  PrivateTable pt = *PrivateTable::Create(
      table, GrrParams::Uniform(0.5, 1.0), GrrOptions{}, rng);
  const std::string sql =
      "SELECT count(1) FROM t WHERE category >= 'c4'";
  SqlResultSet result = *ExecuteSqlQuery(pt, sql);
  ASSERT_FALSE(result.grouped);
  const QueryResult& estimate = result.rows[0].result;
  EXPECT_LE(estimate.ci.lo, truth);
  EXPECT_GE(estimate.ci.hi, truth);
  EXPECT_NEAR(estimate.estimate, truth, 0.15 * truth);

  // Direct reads the inflated nominal count: p·S·l/N = 0.5·15000·2/6 =
  // 2500 expected redraw mass alone puts it far above 1000.
  double direct = ExecuteSqlDirect(pt, sql)->estimate;
  EXPECT_GT(direct, 1.8 * truth);
  // And the SQL route must agree exactly with the native Predicate route:
  // same estimator, same scan, same correction.
  EXPECT_EQ(estimate.estimate,
            pt.Count(Predicate::Compare("category", CompareOp::kGe,
                                        Value("c4")))
                ->estimate);
}

TEST(SqlEngineStatisticalTest, BooleanTreeCountIsBiasCorrected) {
  // A NOT(... OR ...) tree over one attribute collapses to a Udf
  // predicate; the correction still applies because the estimators only
  // need M_pred.
  Table table = SkewedCategoryTable();
  double truth = *ExecuteAggregate(
      table,
      AggregateQuery::Count(Predicate::In(
          "category", {Value("c0"), Value("c5")})));
  ASSERT_EQ(truth, 6200.0);

  Rng rng(7);
  PrivateTable pt = *PrivateTable::Create(
      table, GrrParams::Uniform(0.5, 1.0), GrrOptions{}, rng);
  SqlResultSet result = *ExecuteSqlQuery(
      pt,
      "SELECT count(1) FROM t WHERE NOT (category > 'c0' AND category < "
      "'c5')");
  const QueryResult& estimate = result.rows[0].result;
  EXPECT_LE(estimate.ci.lo, truth);
  EXPECT_GE(estimate.ci.hi, truth);
  EXPECT_NEAR(estimate.estimate, truth, 0.15 * truth);
}

TEST(SqlEngineStatisticalTest, GroupByCountsAreBiasCorrectedPerGroup) {
  // Every group's corrected estimate must be closer to its true count
  // than the uncorrected Direct group count, summed over groups.
  Table table = SkewedCategoryTable();
  auto truth = *GroupByCount(table, "category");

  Rng rng(11);
  PrivateTable pt = *PrivateTable::Create(
      table, GrrParams::Uniform(0.5, 1.0), GrrOptions{}, rng);
  const std::string sql = "SELECT count(1) FROM t GROUP BY category";
  SqlResultSet corrected = *ExecuteSqlQuery(pt, sql);
  SqlResultSet direct = *ExecuteSqlQueryDirect(pt, sql);
  ASSERT_EQ(corrected.rows.size(), truth.size());
  ASSERT_EQ(direct.rows.size(), truth.size());

  // The two paths may order groups differently; key by group value.
  std::map<Value, double> corrected_by_group, direct_by_group;
  for (const SqlRow& row : corrected.rows) {
    corrected_by_group[*row.group] = row.result.estimate;
  }
  for (const SqlRow& row : direct.rows) {
    direct_by_group[*row.group] = row.result.estimate;
  }

  double corrected_error = 0.0, direct_error = 0.0;
  for (const auto& [group, count] : truth) {
    SCOPED_TRACE("group " + RenderSqlLiteral(group));
    ASSERT_EQ(corrected_by_group.count(group), 1u);
    ASSERT_EQ(direct_by_group.count(group), 1u);
    double true_count = static_cast<double>(count);
    corrected_error += std::abs(corrected_by_group[group] - true_count);
    direct_error += std::abs(direct_by_group[group] - true_count);
  }
  EXPECT_LT(corrected_error, direct_error);
  EXPECT_LT(corrected_error, 0.10 * static_cast<double>(table.num_rows()));
}

}  // namespace
}  // namespace privateclean
