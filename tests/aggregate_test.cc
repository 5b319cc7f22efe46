#include "query/aggregate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "table/domain.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

Schema TestSchema() {
  return *Schema::Make({Field::Discrete("major"),
                        Field::Numerical("score", ValueType::kDouble)});
}

Table TestTable() {
  TableBuilder b(TestSchema());
  b.Row({Value("EECS"), Value(4.0)})
      .Row({Value("Math"), Value(2.0)})
      .Row({Value("EECS"), Value(5.0)})
      .Row({Value("Math"), Value(3.0)})
      .Row({Value("EECS"), Value::Null()})
      .Row({Value("Bio"), Value(1.0)});
  return *b.Finish();
}

Predicate Eecs() { return Predicate::Equals("major", "EECS"); }

TEST(AggregateTest, CountNoPredicate) {
  EXPECT_DOUBLE_EQ(*ExecuteAggregate(TestTable(), AggregateQuery::Count()),
                   6.0);
}

TEST(AggregateTest, CountWithPredicate) {
  EXPECT_DOUBLE_EQ(
      *ExecuteAggregate(TestTable(), AggregateQuery::Count(Eecs())), 3.0);
}

TEST(AggregateTest, SumSkipsNulls) {
  EXPECT_DOUBLE_EQ(
      *ExecuteAggregate(TestTable(), AggregateQuery::Sum("score", Eecs())),
      9.0);
  EXPECT_DOUBLE_EQ(
      *ExecuteAggregate(TestTable(), AggregateQuery::Sum("score")), 15.0);
}

TEST(AggregateTest, AvgOverNonNullMatches) {
  EXPECT_DOUBLE_EQ(
      *ExecuteAggregate(TestTable(), AggregateQuery::Avg("score", Eecs())),
      4.5);
}

TEST(AggregateTest, AvgNoMatchesFails) {
  auto r = ExecuteAggregate(
      TestTable(),
      AggregateQuery::Avg("score", Predicate::Equals("major", "Absent")));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

TEST(AggregateTest, AvgZeroSelectedRowsIsTypedStatusNotZeroOrNan) {
  // Regression: AVG over an empty selection must be a FailedPrecondition
  // Status, never a raw 0.0 or NaN — and identically so on an entirely
  // empty relation and at every thread count.
  Table empty = *Table::MakeEmpty(TestSchema());
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecutionOptions exec;
    exec.num_threads = threads;
    auto on_empty =
        ExecuteAggregate(empty, AggregateQuery::Avg("score"), exec);
    ASSERT_FALSE(on_empty.ok());
    EXPECT_TRUE(on_empty.status().IsFailedPrecondition());
    auto no_match = ExecuteAggregate(
        TestTable(),
        AggregateQuery::Avg("score", Predicate::Equals("major", "Absent")),
        exec);
    ASSERT_FALSE(no_match.ok());
    EXPECT_TRUE(no_match.status().IsFailedPrecondition());
  }
}

TEST(AggregateTest, AvgAllNullMatchesFails) {
  // Rows match the predicate but every matching numeric entry is NULL:
  // there is no well-defined mean, so this is the same typed error.
  TableBuilder b(TestSchema());
  b.Row({Value("EECS"), Value::Null()})
      .Row({Value("EECS"), Value::Null()})
      .Row({Value("Math"), Value(2.0)});
  Table table = *b.Finish();
  auto r = ExecuteAggregate(table, AggregateQuery::Avg("score", Eecs()));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

TEST(AggregateTest, SumOnStringAttributeRejected) {
  auto r = ExecuteAggregate(TestTable(), AggregateQuery::Sum("major"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(AggregateTest, SumOnMissingAttributeRejected) {
  EXPECT_FALSE(ExecuteAggregate(TestTable(),
                                AggregateQuery::Sum("nope")).ok());
}

TEST(AggregateTest, VarAndStd) {
  AggregateQuery var{AggregateType::kVar, "score", std::nullopt, 50.0};
  // Non-null scores: 4,2,5,3,1 -> mean 3, sample var 2.5.
  EXPECT_NEAR(*ExecuteAggregate(TestTable(), var), 2.5, 1e-12);
  AggregateQuery stddev{AggregateType::kStd, "score", std::nullopt, 50.0};
  EXPECT_NEAR(*ExecuteAggregate(TestTable(), stddev), std::sqrt(2.5),
              1e-12);
}

TEST(AggregateTest, MedianAndPercentile) {
  AggregateQuery median{AggregateType::kMedian, "score", std::nullopt, 50.0};
  EXPECT_DOUBLE_EQ(*ExecuteAggregate(TestTable(), median), 3.0);
  AggregateQuery p100{AggregateType::kPercentile, "score", std::nullopt,
                      100.0};
  EXPECT_DOUBLE_EQ(*ExecuteAggregate(TestTable(), p100), 5.0);
}

TEST(AggregateTest, VarNeedsTwoRows) {
  AggregateQuery var{AggregateType::kVar, "score",
                     Predicate::Equals("major", "Bio"), 50.0};
  EXPECT_FALSE(ExecuteAggregate(TestTable(), var).ok());
}

/// QueryScanStats of `pred` from the per-value build, merged the way a
/// corrected SUM merges them: the rows and per-value exact sums
/// (ComputeValueSums) of the key's ColumnCodes slots whose value the
/// predicate matches, the exact complement, and the moments. An empty
/// `numeric` leaves the sums and moments zero, as a COUNT reads them.
QueryScanStats PerValueStats(const Table& table, const Predicate& pred,
                             const std::string& numeric) {
  const ColumnCodes codes(**table.ColumnByName(pred.attribute()));
  std::vector<size_t> slot_rows(codes.num_slots(), 0);
  for (size_t r = 0; r < codes.size(); ++r) {
    ++slot_rows[std::min(codes.codes()[r], codes.null_slot())];
  }
  QueryScanStats stats;
  stats.total_rows = table.num_rows();
  std::vector<uint32_t> matching_slots;
  for (uint32_t slot = 0; slot < codes.num_slots(); ++slot) {
    if (slot_rows[slot] == 0 || !pred.Matches(codes.ValueOf(slot))) continue;
    matching_slots.push_back(slot);
    stats.matching_rows += slot_rows[slot];
  }
  if (numeric.empty()) return stats;
  const ValueSums sums = *ComputeValueSums(table, pred.attribute(), numeric);
  ExactSum matching;
  for (uint32_t slot : matching_slots) sums.sums.AddTo(slot, &matching);
  ExactSum complement = sums.total;
  complement.Subtract(matching);
  stats.matching_sum = matching.Round();
  stats.complement_sum = complement.Round();
  const NumericMoments moments = *ComputeNumericMoments(table, numeric);
  stats.numeric_mean = moments.mean;
  stats.numeric_variance = moments.variance;
  return stats;
}

TEST(ScanTest, BasicStats) {
  QueryScanStats stats = PerValueStats(TestTable(), Eecs(), "score");
  EXPECT_EQ(stats.total_rows, 6u);
  EXPECT_EQ(stats.matching_rows, 3u);
  EXPECT_DOUBLE_EQ(stats.matching_sum, 9.0);
  EXPECT_DOUBLE_EQ(stats.complement_sum, 6.0);
  // Moments over non-null scores: 4,2,5,3,1.
  EXPECT_DOUBLE_EQ(stats.numeric_mean, 3.0);
  EXPECT_DOUBLE_EQ(stats.numeric_variance, 2.0);  // Population variance.
}

TEST(ScanTest, CountOnlyScanHasZeroSums) {
  QueryScanStats stats = PerValueStats(TestTable(), Eecs(), "");
  EXPECT_EQ(stats.matching_rows, 3u);
  EXPECT_DOUBLE_EQ(stats.matching_sum, 0.0);
  EXPECT_DOUBLE_EQ(stats.complement_sum, 0.0);
}

TEST(ScanTest, SumPlusComplementEqualsTotal) {
  QueryScanStats stats = PerValueStats(TestTable(), Eecs(), "score");
  double total =
      *ExecuteAggregate(TestTable(), AggregateQuery::Sum("score"));
  EXPECT_DOUBLE_EQ(stats.matching_sum + stats.complement_sum, total);
}

TEST(GroupByTest, CountsPerGroup) {
  auto groups = *GroupByCount(TestTable(), "major");
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[Value("EECS")], 3u);
  EXPECT_EQ(groups[Value("Math")], 2u);
  EXPECT_EQ(groups[Value("Bio")], 1u);
}

TEST(GroupByTest, NullGroupDistinctFromEmptyStringGroup) {
  // Regression: keys used to be stringified, so a NULL group and a
  // genuine '' group collided into one bucket of 3.
  TableBuilder b(TestSchema());
  b.Row({Value::Null(), Value(1.0)})
      .Row({Value(""), Value(2.0)})
      .Row({Value(""), Value(3.0)})
      .Row({Value("X"), Value(4.0)});
  Table t = *b.Finish();
  auto groups = *GroupByCount(t, "major");
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[Value::Null()], 1u);
  EXPECT_EQ(groups[Value("")], 2u);
  EXPECT_EQ(groups[Value("X")], 1u);
}

TEST(GroupByTest, MissingAttributeFails) {
  EXPECT_FALSE(GroupByCount(TestTable(), "nope").ok());
}

TEST(AggregateTypeTest, Names) {
  EXPECT_STREQ(AggregateTypeToString(AggregateType::kCount), "count");
  EXPECT_STREQ(AggregateTypeToString(AggregateType::kSum), "sum");
  EXPECT_STREQ(AggregateTypeToString(AggregateType::kAvg), "avg");
  EXPECT_STREQ(AggregateTypeToString(AggregateType::kMedian), "median");
}

}  // namespace
}  // namespace privateclean
