// Row indexes (table/row_index.h) and the two-attribute counts read
// through them (core/conjunctive.h). The index must hold every row once,
// grouped by ColumnCodes slot and ascending within a slot, with the same
// bytes at every thread count; every count must equal the scan of both
// predicates' full row masks (conjunctive_reference.h), for every key
// type and predicate shape, before and after cleaning.

#include "table/row_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cleaning/merge.h"
#include "cleaning/transform.h"
#include "common/random.h"
#include "conjunctive_reference.h"
#include "core/private_table.h"
#include "core/sql_execution.h"
#include "query/sql.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

using testing_reference::ExpectQuadrantsEqual;
using testing_reference::ReferenceQuadrants;
using testing_reference::TestRowIndex;

/// One discrete column of each type over `rows` rows: a string key with
/// NULLs and '', an int64 key with NULLs, and a double key with NULLs,
/// -0.0 and +0.0 (one value) and NaN rows (a value each).
Table KeyTable(size_t rows, uint64_t seed) {
  TableBuilder b(*Schema::Make({Field::Discrete("s"),
                                Field::Discrete("i", ValueType::kInt64),
                                Field::Discrete("d", ValueType::kDouble)}));
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    Value s = rng.Bernoulli(0.1)    ? Value::Null()
              : rng.Bernoulli(0.05) ? Value("")
                                    : Value("v" + std::to_string(
                                                      rng.UniformInt(40)));
    Value i = rng.Bernoulli(0.1)
                  ? Value::Null()
                  : Value(static_cast<int64_t>(rng.UniformInt(30)) - 10);
    Value d = rng.Bernoulli(0.1)    ? Value::Null()
              : rng.Bernoulli(0.1)  ? Value(-0.0)
              : rng.Bernoulli(0.1)  ? Value(0.0)
              : rng.Bernoulli(0.05) ? Value(std::nan(""))
                                    : Value(0.5 * static_cast<double>(
                                                      rng.UniformInt(20)));
    b.Row({s, i, d});
  }
  return *b.Finish();
}

TEST(RowIndexTest, HoldsEveryRowOnceGroupedBySlotAtEveryThreadCount) {
  for (size_t rows : {size_t{0}, size_t{1}, kRowsPerShard, kRowsPerShard + 1}) {
    const Table table = KeyTable(rows, 17 + rows);
    for (const char* key : {"s", "i", "d"}) {
      SCOPED_TRACE(std::string(key) + " rows=" + std::to_string(rows));
      const ColumnCodes codes(**table.ColumnByName(key));
      const RowIndex index = TestRowIndex(table, key, 1);
      ASSERT_EQ(index.num_slots(), codes.num_slots());
      ASSERT_EQ(index.rows.size(), rows);
      ASSERT_EQ(index.offsets.front(), 0u);
      ASSERT_EQ(index.offsets.back(), rows);
      std::vector<size_t> frequency(codes.num_slots(), 0);
      for (size_t r = 0; r < rows; ++r) {
        ++frequency[std::min(codes.codes()[r], codes.null_slot())];
      }
      std::vector<uint8_t> seen(rows, 0);
      for (size_t s = 0; s < index.num_slots(); ++s) {
        ASSERT_EQ(index.offsets[s + 1] - index.offsets[s], frequency[s]);
        for (uint32_t k = index.offsets[s]; k < index.offsets[s + 1]; ++k) {
          const uint32_t r = index.rows[k];
          ASSERT_LT(r, rows);
          EXPECT_EQ(seen[r]++, 0) << "row " << r << " twice";
          EXPECT_EQ(std::min(codes.codes()[r], codes.null_slot()), s);
          if (k > index.offsets[s]) {
            EXPECT_LT(index.rows[k - 1], r);
          }
        }
      }
      for (size_t threads : {2u, 8u}) {
        const RowIndex other = TestRowIndex(table, key, threads);
        EXPECT_EQ(other.rows, index.rows) << threads << " threads";
        EXPECT_EQ(other.offsets, index.offsets) << threads << " threads";
      }
    }
  }
}

/// A random relation for the differential: a string key `city`, an int64
/// key `grade`, a double key `level` (NULLs, ±0.0) and the numeric
/// attributes `score` and `weight`.
Table CountRelation(size_t rows, uint64_t seed) {
  TableBuilder b(*Schema::Make(
      {Field::Discrete("city"), Field::Discrete("grade", ValueType::kInt64),
       Field::Discrete("level", ValueType::kDouble),
       Field::Numerical("score", ValueType::kDouble),
       Field::Numerical("weight", ValueType::kInt64)}));
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    Value city = rng.Bernoulli(0.08)   ? Value::Null()
                 : rng.Bernoulli(0.03) ? Value("")
                                       : Value("c" + std::to_string(
                                                         rng.UniformInt(12)));
    Value grade = rng.Bernoulli(0.05)
                      ? Value::Null()
                      : Value(static_cast<int64_t>(rng.UniformInt(9)) - 3);
    Value level = rng.Bernoulli(0.05)   ? Value::Null()
                  : rng.Bernoulli(0.08) ? Value(-0.0)
                                        : Value(0.25 * static_cast<double>(
                                                           rng.UniformInt(12)) -
                                                1.0);
    Value score = rng.Bernoulli(0.07)
                      ? Value::Null()
                      : Value(rng.UniformRealRange(-10.0, 10.0));
    Value weight = rng.Bernoulli(0.04)
                       ? Value::Null()
                       : Value(static_cast<int64_t>(rng.UniformInt(100)));
    b.Row({city, grade, level, score, weight});
  }
  return *b.Finish();
}

Predicate Where(const std::string& condition) {
  return *ParseSql("SELECT count(1) FROM r WHERE " + condition)
              ->query.predicate;
}

/// Predicate shapes per attribute: =, IN, NOT, IS [NOT] NULL, ranges on
/// the numeric-typed keys, UDFs and collapsed trees.
std::vector<Predicate> Battery(const std::string& attribute) {
  if (attribute == "city") {
    return {Predicate::Equals("city", Value("c3")),
            Predicate::In("city", {Value("c1"), Value::Null(), Value("")}),
            Predicate::Equals("city", Value("c2")).Negate(),
            Predicate::IsNull("city"),
            Predicate::Equals("city", Value("absent")),
            Predicate::Udf("city",
                           [](const Value& v) {
                             return !v.is_null() && v.AsString().size() > 2;
                           }),
            Where("city >= 'c1' AND NOT city = 'c3' OR city IS NULL")};
  }
  if (attribute == "grade") {
    return {Predicate::Equals("grade", Value(int64_t{2})),
            Predicate::Equals("grade", Value(1.0)),
            Predicate::IsNotNull("grade"),
            Where("grade IN (0, 1, NULL)"),
            Where("grade >= -1 AND grade < 3"),
            Where("NOT grade > 0"),
            Predicate::Udf("grade", [](const Value& v) {
              return v.is_null() || v.AsInt64() % 2 == 0;
            })};
  }
  if (attribute == "level") {
    return {Predicate::Equals("level", Value(0.0)),
            Predicate::Equals("level", Value(int64_t{1})),
            Predicate::IsNull("level"),
            Where("level < 0.5 AND NOT level = -0.25"),
            Where("level IN (0.25, 0.5) OR level IS NULL"),
            Predicate::Udf("level", [](const Value& v) {
              return !v.is_null() && std::isnan(v.AsDouble());
            })};
  }
  return {Where("score >= 0"), Where("score < -2.5 OR score IS NULL"),
          Predicate::IsNotNull("score")};
}

/// Every quadrant of every discrete pair, and count_tt with the numeric
/// `score` on either side, against the mask reference, read through the
/// cached indexes at 1 and 8 threads; and the corrected COUNT against
/// the estimator over the reference quadrants.
void ExpectCountsEqualReference(const PrivateTable& pt,
                                const std::string& stage) {
  SCOPED_TRACE(stage);
  const Table& relation = pt.relation();
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"city", "grade"}, {"grade", "level"}, {"level", "city"},
      {"city", "score"}, {"score", "level"}};
  for (const auto& [attr_a, attr_b] : pairs) {
    for (const Predicate& a : Battery(attr_a)) {
      for (const Predicate& b : Battery(attr_b)) {
        const ConjunctiveScanStats want = ReferenceQuadrants(relation, a, b);
        for (size_t threads : {1u, 8u}) {
          ExecutionOptions exec;
          exec.num_threads = threads;
          SCOPED_TRACE(attr_a + " x " + attr_b + " threads " +
                       std::to_string(threads));
          EXPECT_EQ(*pt.CountMatchingBoth(a, b, exec), want.count_tt);
        }
        if (attr_a == "score" || attr_b == "score") continue;
        SCOPED_TRACE(attr_a + " x " + attr_b);
        ExpectQuadrantsEqual(
            *CountConjunctiveQuadrants(relation, a, **pt.RowIndexFor(attr_a),
                                       b, **pt.RowIndexFor(attr_b)),
            want);
        auto corrected = pt.CountConjunctive(a, b);
        auto in_a = pt.InputsForPredicate(a, "", QueryOptions());
        auto in_b = pt.InputsForPredicate(b, "", QueryOptions());
        ASSERT_TRUE(in_a.ok() && in_b.ok());
        auto expected = EstimateConjunctiveCount(want, *in_a, *in_b);
        ASSERT_EQ(corrected.ok(), expected.ok());
        if (corrected.ok()) {
          EXPECT_EQ(corrected->estimate, expected->estimate);
          EXPECT_EQ(corrected->ci.lo, expected->ci.lo);
          EXPECT_EQ(corrected->ci.hi, expected->ci.hi);
        }
      }
    }
  }
}

TEST(RowIndexTest, CountsEqualTheMaskReferenceThroughCleaning) {
  Rng grr_rng(41);
  PrivateTable pt =
      *PrivateTable::Create(CountRelation(2 * kRowsPerShard + 333, 40),
                            GrrParams::Uniform(0.3, 1.0), GrrOptions{},
                            grr_rng);
  ExpectCountsEqualReference(pt, "fresh");
  ASSERT_TRUE(pt.WarmCaches().ok());
  ExpectCountsEqualReference(pt, "warmed");
  ASSERT_TRUE(pt.Clean(FindReplace("city", {{Value("c1"), Value("c0")},
                                            {Value("c4"), Value::Null()}}))
                  .ok());
  ExpectCountsEqualReference(pt, "find-replace");
  ASSERT_TRUE(pt.Clean(MergeToNull("grade", [](const Value& v) {
                  return !v.is_null() && v.AsInt64() == 2;
                })).ok());
  ExpectCountsEqualReference(pt, "merge-to-null");
  ASSERT_TRUE(pt.Clean(ValueTransform("level", [](const Value& v) {
                  return !v.is_null() && v.AsDouble() >= 1.0
                             ? Value(std::nan(""))
                             : v;
                })).ok());
  ExpectCountsEqualReference(pt, "level to NaN");
}

TEST(RowIndexTest, DirectConjunctsEqualTheMaskReference) {
  Rng grr_rng(51);
  PrivateTable pt = *PrivateTable::Create(
      CountRelation(kRowsPerShard + 5, 50), GrrParams::Uniform(0.3, 1.0),
      GrrOptions{}, grr_rng);
  const struct {
    const char* where;
    const char* side_a;
    const char* side_b;
  } cases[] = {
      // A discrete side: the row-index count.
      {"score >= -2.5 AND score < 4 AND grade >= 0",
       "score >= -2.5 AND score < 4", "grade >= 0"},
      {"city = 'c3' AND level < 0.5", "city = 'c3'", "level < 0.5"},
      // Two numeric attributes: no row index, so Direct evaluates the
      // whole WHERE tree.
      {"score >= 0 AND weight < 40", "score >= 0", "weight < 40"},
      {"weight IS NULL AND NOT score < 1", "weight IS NULL",
       "NOT score < 1"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.where);
    const auto direct = ExecuteSqlDirect(
        pt, std::string("SELECT count(1) FROM r WHERE ") + c.where);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct->estimate,
              static_cast<double>(ReferenceQuadrants(pt.relation(),
                                                     Where(c.side_a),
                                                     Where(c.side_b))
                                      .count_tt));
  }
  EXPECT_TRUE(pt.CountMatchingBoth(Where("score >= 0"), Where("weight < 40"))
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace privateclean
