#include "core/private_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "cleaning/extract.h"
#include "cleaning/merge.h"
#include "cleaning/transform.h"
#include "core/privateclean.h"
#include "core/sql_execution.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

Schema TestSchema() {
  return *Schema::Make({Field::Discrete("major"),
                        Field::Numerical("score", ValueType::kDouble)});
}

/// 600 rows over 6 majors with known counts and scores.
Table TestTable() {
  TableBuilder b(TestSchema());
  const char* majors[] = {"EECS",    "Mech. Eng.", "Mechanical Engineering",
                          "Math",    "Physics",    "Bio"};
  const size_t counts[] = {200, 100, 100, 100, 50, 50};
  const double scores[] = {4.0, 3.0, 3.5, 2.0, 4.5, 1.0};
  for (int m = 0; m < 6; ++m) {
    for (size_t i = 0; i < counts[m]; ++i) {
      b.Row({Value(majors[m]), Value(scores[m])});
    }
  }
  return *b.Finish();
}

PrivateTable MakePrivate(double p = 0.1, double b = 0.5,
                         uint64_t seed = 42) {
  Rng rng(seed);
  return *PrivateTable::Create(TestTable(), GrrParams::Uniform(p, b),
                               GrrOptions{}, rng);
}

TEST(PrivateTableTest, CreateExposesMetadata) {
  PrivateTable pt = MakePrivate();
  EXPECT_EQ(pt.size(), 600u);
  EXPECT_EQ(pt.metadata().discrete.at("major").domain.size(), 6u);
  EXPECT_DOUBLE_EQ(pt.metadata().discrete.at("major").p, 0.1);
  EXPECT_DOUBLE_EQ(pt.metadata().numeric.at("score").b, 0.5);
}

TEST(PrivateTableTest, PrivacyAccountingMatchesTheorem1) {
  PrivateTable pt = MakePrivate(0.25, 1.0);
  PrivacyReport report = *pt.PrivacyAccounting();
  double eps_major = std::log(3.0 / 0.25 - 2.0);
  double eps_score = 3.5 / 1.0;  // Sensitivity (4.5 - 1.0) / b.
  EXPECT_NEAR(report.total_epsilon, eps_major + eps_score, 1e-9);
  EXPECT_TRUE(report.fully_private);
}

TEST(PrivateTableTest, CountCorrectsTowardTruth) {
  // Average over many private instances: corrected count should be close
  // to the true count (200), while Direct is biased upward for this
  // selective predicate... (rare values inflate under randomization).
  const double truth = 200.0;
  double pc_sum = 0.0, direct_sum = 0.0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    PrivateTable pt = MakePrivate(0.4, 0.5, 1000 + i);
    Predicate pred = Predicate::Equals("major", "EECS");
    pc_sum += pt.Count(pred)->estimate;
    direct_sum += pt.ExecuteDirect(AggregateQuery::Count(pred))->estimate;
  }
  double pc_mean = pc_sum / trials;
  double direct_mean = direct_sum / trials;
  EXPECT_NEAR(pc_mean, truth, 12.0);
  // EECS is over-represented (200/600 > 1/6), so randomization shrinks it
  // and Direct underestimates.
  EXPECT_LT(direct_mean, truth - 15.0);
  EXPECT_LT(std::abs(pc_mean - truth), std::abs(direct_mean - truth));
}

TEST(PrivateTableTest, CleaningThenQueryUsesProvenance) {
  PrivateTable pt = MakePrivate(0.2, 0.5, 7);
  std::unordered_map<Value, Value, ValueHash> fixes{
      {Value("Mechanical Engineering"), Value("Mech. Eng.")}};
  ASSERT_TRUE(pt.Clean(FindReplace("major", std::move(fixes))).ok());
  Predicate pred = Predicate::Equals("major", "Mech. Eng.");
  EstimationInputs in = *pt.InputsForPredicate(pred, "", QueryOptions{});
  EXPECT_DOUBLE_EQ(in.l, 2.0);  // Two dirty spellings merged.
  EXPECT_DOUBLE_EQ(in.n, 6.0);
  QueryResult r = *pt.Count(pred);
  EXPECT_DOUBLE_EQ(r.l, 2.0);
}

TEST(PrivateTableTest, UnweightedCutOption) {
  PrivateTable pt = MakePrivate(0.2, 0.5, 8);
  // Force a forked graph with a projection-dependent rewrite: merge
  // Physics and Bio into "Science" but only for half the rows via a
  // second attribute — here we emulate by mapping Physics -> Science and
  // Bio -> Science, fork-free; weighted == unweighted in that case.
  std::unordered_map<Value, Value, ValueHash> fixes{
      {Value("Physics"), Value("Science")}, {Value("Bio"), Value("Science")}};
  ASSERT_TRUE(pt.Clean(FindReplace("major", std::move(fixes))).ok());
  Predicate pred = Predicate::Equals("major", "Science");
  QueryOptions weighted;
  QueryOptions unweighted;
  unweighted.weighted_cut = false;
  EstimationInputs wi = *pt.InputsForPredicate(pred, "", weighted);
  EstimationInputs ui = *pt.InputsForPredicate(pred, "", unweighted);
  EXPECT_DOUBLE_EQ(wi.l, 2.0);
  EXPECT_DOUBLE_EQ(ui.l, 2.0);
}

TEST(PrivateTableTest, ExtractThenPredicateOnDerivedAttribute) {
  PrivateTable pt = MakePrivate(0.15, 0.5, 9);
  ExtractAttribute extract(
      "is_eng", {"major"}, [](const std::vector<Value>& tuple) {
        const std::string& s = tuple[0].AsString();
        bool eng = s.find("Eng") != std::string::npos || s == "EECS";
        return Value(eng ? "yes" : "no");
      });
  ASSERT_TRUE(pt.Clean(extract).ok());
  Predicate pred = Predicate::Equals("is_eng", "yes");
  QueryResult r = *pt.Count(pred);
  EXPECT_DOUBLE_EQ(r.n, 6.0);  // Anchored to major's dirty domain.
  EXPECT_DOUBLE_EQ(r.l, 3.0);  // EECS + two Mech spellings.
}

TEST(PrivateTableTest, SumAndAvgRun) {
  PrivateTable pt = MakePrivate(0.1, 0.5, 10);
  Predicate pred = Predicate::Equals("major", "EECS");
  QueryResult sum = *pt.Sum("score", pred);
  QueryResult avg = *pt.Avg("score", pred);
  // Truth: sum 800, avg 4.0. Loose sanity bounds.
  EXPECT_NEAR(sum.estimate, 800.0, 250.0);
  EXPECT_NEAR(avg.estimate, 4.0, 1.0);
  EXPECT_TRUE(sum.ci.Contains(sum.estimate));
}

TEST(PrivateTableTest, ExecuteDispatch) {
  PrivateTable pt = MakePrivate(0.1, 0.5, 11);
  Predicate pred = Predicate::Equals("major", "Math");
  QueryResult via_execute = *pt.Execute(AggregateQuery::Count(pred));
  QueryResult via_count = *pt.Count(pred);
  EXPECT_DOUBLE_EQ(via_execute.estimate, via_count.estimate);
}

TEST(PrivateTableTest, ExecuteWithoutPredicateIsDirectUnbiased) {
  PrivateTable pt = MakePrivate(0.3, 0.5, 12);
  QueryResult count = *pt.Execute(AggregateQuery::Count());
  EXPECT_DOUBLE_EQ(count.estimate, 600.0);
  QueryResult sum = *pt.Execute(AggregateQuery::Sum("score"));
  // Truth 1900; Laplace noise is zero-mean, CI should be tight-ish.
  EXPECT_NEAR(sum.estimate, 1900.0, 150.0);
  EXPECT_GT(sum.ci.Width(), 0.0);
}

TEST(PrivateTableTest, PredicateOnNumericAttributeFails) {
  PrivateTable pt = MakePrivate();
  Predicate pred = Predicate::Equals("score", Value(4.0));
  auto r = pt.Count(pred);
  EXPECT_FALSE(r.ok());
}

TEST(PrivateTableTest, PredicateOnMissingAttributeFails) {
  PrivateTable pt = MakePrivate();
  EXPECT_FALSE(pt.Count(Predicate::Equals("nope", "x")).ok());
}

TEST(PrivateTableTest, ExecuteRejectsExtendedAggregates) {
  PrivateTable pt = MakePrivate();
  AggregateQuery q{AggregateType::kMedian, "score", std::nullopt, 50.0};
  EXPECT_FALSE(pt.Execute(q).ok());
}

TEST(PrivateTableTest, ExtendedAggregates) {
  PrivateTable pt = MakePrivate(0.1, 2.0, 13);
  AggregateQuery median{AggregateType::kMedian, "score", std::nullopt, 50.0};
  double med = *pt.ExtendedAggregate(median);
  EXPECT_NEAR(med, 3.5, 1.5);  // True median 3.5, noised.
  AggregateQuery var{AggregateType::kVar, "score", std::nullopt, 50.0};
  double corrected_var = *pt.ExtendedAggregate(var);
  // True variance ~1.27; nominal private var inflated by 2b^2 = 8, the
  // correction subtracts it back.
  EXPECT_NEAR(corrected_var, 1.27, 1.0);
  AggregateQuery bad{AggregateType::kSum, "score", std::nullopt, 50.0};
  EXPECT_FALSE(pt.ExtendedAggregate(bad).ok());
}

TEST(PrivateTableTest, CreateWithTuningProducesTargetBound) {
  Rng rng(21);
  PrivateTable pt = *PrivateTable::CreateWithTuning(TestTable(), 0.08,
                                                    0.95, rng);
  double p = pt.metadata().discrete.at("major").p;
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
  EXPECT_NEAR(*CountErrorBound(p, 600), 0.08, 1e-9);
}

TEST(PrivateTableTest, CleanPipeline) {
  PrivateTable pt = MakePrivate(0.2, 0.5, 22);
  CleaningPipeline pipeline;
  pipeline.Emplace<FindReplace>(FindReplace::Single(
      "major", Value("Mechanical Engineering"), Value("Mech. Eng.")));
  pipeline.Emplace<FindReplace>(FindReplace::Single(
      "major", Value("Physics"), Value("Science")));
  ASSERT_TRUE(pt.Clean(pipeline).ok());
  Domain d = *Domain::FromColumn(pt.relation(), "major");
  EXPECT_EQ(d.size(), 5u);
}

TEST(PrivateTableTest, GraphCacheInvalidatedByCleaning) {
  // Query before cleaning (populates the graph cache), clean, query
  // again: the cached graph must be refreshed, not reused.
  PrivateTable pt = MakePrivate(0.2, 0.5, 31);
  Predicate pred = Predicate::Equals("major", "Mech. Eng.");
  QueryResult before = *pt.Count(pred);
  EXPECT_DOUBLE_EQ(before.l, 1.0);
  ASSERT_TRUE(pt.Clean(FindReplace::Single(
                   "major", Value("Mechanical Engineering"),
                   Value("Mech. Eng.")))
                  .ok());
  QueryResult after = *pt.Count(pred);
  EXPECT_DOUBLE_EQ(after.l, 2.0);  // Stale cache would still say 1.
  // Repeated queries (cache hits) agree with the first post-clean one.
  EXPECT_DOUBLE_EQ(pt.Count(pred)->estimate, after.estimate);
}

TEST(PrivateTableTest, CleanDropsCachedNumericMoments) {
  // SUM/AVG intervals read μ_p and σ_p² of the summed column from a
  // per-table cache. A ValueTransform may rewrite a numeric-typed
  // discrete column; after one rescales the summed column, SUM and AVG
  // must equal a fresh table's over the cleaned relation. Stale moments
  // would keep the old, narrower interval.
  Schema schema = *Schema::Make(
      {Field::Discrete("major"), Field::Discrete("rating", ValueType::kInt64)});
  TableBuilder b(schema);
  for (int i = 0; i < 600; ++i) {
    b.Row({Value(i % 3 == 0 ? "EECS" : "Math"), Value(int64_t{1 + i % 5})});
  }
  Rng rng(57);
  PrivateTable pt = *PrivateTable::Create(
      *b.Finish(), GrrParams::Uniform(0.2, 0.5), GrrOptions{}, rng);
  Predicate pred = Predicate::Equals("major", "EECS");
  QueryResult sum_before = *pt.Sum("rating", pred);
  ASSERT_TRUE(pt.Avg("rating", pred).ok());
  ASSERT_TRUE(pt.Clean(ValueTransform("rating", [](const Value& v) {
                  return v.is_null() ? v : Value(v.AsInt64() * 10);
                })).ok());
  PrivateTable fresh =
      *PrivateTable::FromPrivateRelation(pt.relation().Clone(), pt.metadata());
  QueryResult sum = *pt.Sum("rating", pred);
  QueryResult fresh_sum = *fresh.Sum("rating", pred);
  EXPECT_EQ(sum.estimate, fresh_sum.estimate);
  EXPECT_EQ(sum.ci.lo, fresh_sum.ci.lo);
  EXPECT_EQ(sum.ci.hi, fresh_sum.ci.hi);
  EXPECT_GT(sum.ci.Width(), sum_before.ci.Width());
  QueryResult avg = *pt.Avg("rating", pred);
  QueryResult fresh_avg = *fresh.Avg("rating", pred);
  EXPECT_EQ(avg.estimate, fresh_avg.estimate);
  EXPECT_EQ(avg.ci.lo, fresh_avg.ci.lo);
  EXPECT_EQ(avg.ci.hi, fresh_avg.ci.hi);
}

TEST(PrivateTableTest, ProvenanceForExposesGraph) {
  PrivateTable pt = MakePrivate(0.2, 0.5, 23);
  const ProvenanceGraph* g = *pt.ProvenanceFor("major");
  EXPECT_EQ(g->num_dirty_values(), 6u);
  EXPECT_TRUE(g->is_fork_free());
  EXPECT_EQ(*pt.ProvenanceFor("major"), g);  // The cached graph, no copy.
  EXPECT_FALSE(pt.ProvenanceFor("score").ok());
}

TEST(PrivateTableTest, AvgDividesByNonNullValuesOnly) {
  // SQL's AVG divides by the rows whose value is non-null. On a p = 0,
  // b = 0 release (no noise) the corrected AVG, the Direct AVG and the
  // compound-predicate Direct AVG all equal the mean of the non-null
  // scores, and a match whose values are all NULL is a typed error.
  TableBuilder b(*Schema::Make({Field::Discrete("city"),
                                Field::Numerical("score", ValueType::kDouble)}));
  std::vector<double> c2_scores;
  for (size_t i = 0; i < 20000; ++i) {
    const std::string city = "c" + std::to_string(i % 5);
    const double score = static_cast<double>(i % 97) / 7.0;
    const bool null_score = i % 13 == 4;
    b.Row({Value(city), null_score ? Value::Null() : Value(score)});
    if (city == "c2" && !null_score) c2_scores.push_back(score);
  }
  for (size_t i = 0; i < 50; ++i) b.Row({Value("c9"), Value::Null()});
  Rng rng(7);
  PrivateTable pt = *PrivateTable::Create(
      *b.Finish(), GrrParams::Uniform(0.0, 0.0), GrrOptions{}, rng);
  double sum = 0.0;
  for (double x : c2_scores) sum += x;
  const double mean = sum / static_cast<double>(c2_scores.size());

  auto corrected = ExecuteSql(pt, "SELECT avg(score) FROM r WHERE city = 'c2'");
  ASSERT_TRUE(corrected.ok()) << corrected.status().ToString();
  EXPECT_DOUBLE_EQ(corrected->estimate, mean);
  EXPECT_DOUBLE_EQ(corrected->nominal, mean);
  auto direct =
      ExecuteSqlDirect(pt, "SELECT avg(score) FROM r WHERE city = 'c2'");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_DOUBLE_EQ(direct->estimate, mean);
  auto compound = ExecuteSqlDirect(
      pt, "SELECT avg(score) FROM r WHERE city = 'c2' AND score > -1");
  ASSERT_TRUE(compound.ok()) << compound.status().ToString();
  EXPECT_DOUBLE_EQ(compound->estimate, mean);
  // The three read the same sum, so they agree to the bit.
  EXPECT_EQ(corrected->estimate, direct->estimate);
  EXPECT_EQ(direct->estimate, compound->estimate);

  for (const char* sql :
       {"SELECT avg(score) FROM r WHERE city = 'c9'",
        "SELECT avg(score) FROM r WHERE city = 'c9' AND city != 'c1'"}) {
    SCOPED_TRACE(sql);
    EXPECT_TRUE(ExecuteSql(pt, sql).status().IsFailedPrecondition())
        << ExecuteSql(pt, sql).status().ToString();
    EXPECT_TRUE(ExecuteSqlDirect(pt, sql).status().IsFailedPrecondition())
        << ExecuteSqlDirect(pt, sql).status().ToString();
  }
  EXPECT_TRUE(
      ExecuteSqlDirect(pt,
                       "SELECT avg(score) FROM r WHERE city = 'c9' AND "
                       "score > -1")
          .status()
          .IsFailedPrecondition());
  // Every Direct form answers through one engine, so a SUM whose matches
  // are all NULL is the same typed error with one predicate or two.
  for (const char* sql :
       {"SELECT sum(score) FROM r WHERE city = 'c9'",
        "SELECT sum(score) FROM r WHERE city = 'c9' AND city != 'c1'"}) {
    SCOPED_TRACE(sql);
    EXPECT_TRUE(ExecuteSqlDirect(pt, sql).status().IsFailedPrecondition())
        << ExecuteSqlDirect(pt, sql).status().ToString();
  }
}

/// The bits of the corrected COUNT, SUM(y) and AVG(y) under `pred`.
std::string CorrectedBits(const PrivateTable& pt, const Predicate& pred) {
  std::string bits;
  for (const Result<QueryResult>& r :
       {pt.Count(pred), pt.Sum("y", pred), pt.Avg("y", pred)}) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) continue;
    for (double v : {r->estimate, r->ci.lo, r->ci.hi, r->nominal, r->l}) {
      uint64_t word;
      std::memcpy(&word, &v, sizeof word);
      bits += std::to_string(word) + " ";
    }
  }
  return bits;
}

TEST(PrivateTableTest, TransformToNanBuildsTheGraphAndCounts) {
  // A ValueTransform maps the values >= 2 of a double discrete column to
  // NaN. A NaN equals nothing, so each NaN row is a clean value of its
  // own; the graph builds and a COUNT on another value answers.
  auto to_nan = ValueTransform("x", [](const Value& v) {
    return v.AsDouble() >= 2.0 ? Value(std::nan("")) : v;
  });
  TableBuilder b(*Schema::Make(
      {Field{"x", ValueType::kDouble, AttributeKind::kDiscrete}}));
  for (size_t i = 0; i < 300; ++i) {
    b.Row({Value(static_cast<double>(i % 6) / 2.0)});
  }
  Rng rng(3);
  PrivateTable pt = *PrivateTable::Create(
      *b.Finish(), GrrParams::Uniform(0.0, 0.0), GrrOptions{}, rng);
  ASSERT_TRUE(pt.Clean(to_nan).ok());
  auto graph = pt.ProvenanceFor("x");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ((*graph)->num_dirty_values(), 6u);
  EXPECT_EQ((*graph)->num_clean_values(), 4u + 100u);
  auto count = pt.Count(Predicate::Equals("x", Value(0.5)));
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->estimate, 50.0);

  // At p > 0 the cut l enters every estimate. A predicate reaches clean
  // values by index, so `x IS NOT NULL` still matches every NaN value and
  // reaches the whole dirty domain: l stays N, and the corrected COUNT,
  // SUM and AVG keep their bits. Each value holds 64 rows, so the 1/64
  // weights of a dirty value fanned out over 64 NaN values sum to 1
  // exactly. (The release claims p = 0.3 over an unperturbed relation.)
  TableBuilder exact_rows(*Schema::Make(
      {Field{"x", ValueType::kDouble, AttributeKind::kDiscrete},
       Field::Numerical("y", ValueType::kDouble)}));
  for (size_t i = 0; i < 6 * 64; ++i) {
    exact_rows.Row({Value(static_cast<double>(i % 6) / 2.0),
                    Value(static_cast<double>(i % 11) - 3.5)});
  }
  PrivateTable exact = *PrivateTable::Create(
      *exact_rows.Finish(), GrrParams::Uniform(0.0, 0.0), GrrOptions{}, rng);
  PrivateRelationMetadata metadata = exact.metadata();
  metadata.discrete["x"].p = 0.3;
  PrivateTable noisy = *PrivateTable::FromPrivateRelation(
      exact.relation().Clone(), std::move(metadata));
  const Predicate not_null = Predicate::IsNotNull("x");
  const std::string before = CorrectedBits(noisy, not_null);
  ASSERT_TRUE(noisy.Clean(to_nan).ok());
  EXPECT_FALSE((*noisy.ProvenanceFor("x"))->is_fork_free());
  auto in = noisy.InputsForPredicate(not_null, "y", QueryOptions());
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  EXPECT_EQ(in->l, 6.0);
  EXPECT_EQ(CorrectedBits(noisy, not_null), before);
}

TEST(PrivateTableTest, AllNanColumnBuildsGraphCountAndRowIndex) {
  // A ValueTransform maps every row of a 200k-row double discrete column
  // to NaN: 200k clean values that equal nothing. The clean domain adds
  // each without a hash lookup (every NaN hashes alike, so a lookup would
  // walk one chain: O(k^2)), so the graph, a corrected COUNT and the row
  // index each finish in well under a second.
  constexpr size_t kRows = 200000;
  TableBuilder b(*Schema::Make(
      {Field{"x", ValueType::kDouble, AttributeKind::kDiscrete},
       Field{"k", ValueType::kString, AttributeKind::kDiscrete}}));
  for (size_t i = 0; i < kRows; ++i) {
    b.Row({Value(static_cast<double>(i % 8)),
           Value(i % 5 == 0 ? "a" : "b")});
  }
  Rng rng(9);
  PrivateTable pt = *PrivateTable::Create(
      *b.Finish(), GrrParams::Uniform(0.0, 0.0), GrrOptions{}, rng);
  ASSERT_TRUE(pt.Clean(ValueTransform("x", [](const Value&) {
                  return Value(std::nan(""));
                })).ok());
  auto graph = pt.ProvenanceFor("x");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ((*graph)->num_clean_values(), kRows);
  auto count = pt.Count(Predicate::IsNotNull("x"));
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->estimate, static_cast<double>(kRows));
  auto index = pt.RowIndexFor("x");
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->num_slots(), kRows + 1);
  auto both = pt.CountMatchingBoth(Predicate::IsNotNull("x"),
                                   Predicate::Equals("k", Value("a")));
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_EQ(*both, kRows / 5);
}

TEST(PrivateTableTest, EqualityComparesInt64AndDoubleByValue) {
  // `=` and IN compare an int64 and a double by value, as `<` and `>=`
  // do: `level = 0` counts the rows holding 0.0, and 2^53 + 1 (which no
  // double equals) does not match the double 2^53. Corrected (p = 0, so
  // the estimate is the count) and Direct answers alike.
  const double two53 = 9007199254740992.0;
  TableBuilder b(*Schema::Make(
      {Field{"level", ValueType::kDouble, AttributeKind::kDiscrete},
       Field{"grade", ValueType::kInt64, AttributeKind::kDiscrete}}));
  for (int i = 0; i < 100; ++i) {
    b.Row({Value(i % 4 == 0 ? two53 : static_cast<double>(i % 4) * 0.5),
           Value(static_cast<int64_t>(i % 5))});
  }
  Rng rng(4);
  PrivateTable pt = *PrivateTable::Create(
      *b.Finish(), GrrParams::Uniform(0.0, 0.0), GrrOptions{}, rng);
  const struct {
    const char* where;
    double rows;
  } cases[] = {
      {"level = 1", 25},  // 0.5 * 2 = 1.0.
      {"level IN (1, 0)", 25},
      {"level = 1.0", 25},
      {"level != 1", 75},
      {"level = 9007199254740992", 25},
      {"level = 9007199254740993", 0},
      {"grade = 2.0", 20},
      {"grade = 2.5", 0},
      {"grade IN (1.0, 2.5, 4)", 40},
      {"NOT grade = 3.0", 80},
  };
  for (const auto& c : cases) {
    const std::string sql = std::string("SELECT count(1) FROM r WHERE ") +
                            c.where;
    SCOPED_TRACE(sql);
    auto corrected = ExecuteSql(pt, sql);
    ASSERT_TRUE(corrected.ok()) << corrected.status().ToString();
    EXPECT_EQ(corrected->estimate, c.rows);
    auto direct = ExecuteSqlDirect(pt, sql);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct->estimate, c.rows);
  }
}

}  // namespace
}  // namespace privateclean
