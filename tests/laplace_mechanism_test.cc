#include "privacy/laplace_mechanism.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "common/statistics.h"

namespace privateclean {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LaplaceMechanismTest, ZeroScaleIsIdentity) {
  Rng rng(1);
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendDouble(1.5);
  c.AppendDouble(-2.5);
  ASSERT_TRUE(ApplyLaplaceMechanism(&c, 0.0, rng).ok());
  EXPECT_DOUBLE_EQ(c.DoubleAt(0), 1.5);
  EXPECT_DOUBLE_EQ(c.DoubleAt(1), -2.5);
}

TEST(LaplaceMechanismTest, NoiseIsZeroMeanWithCorrectVariance) {
  Rng rng(2);
  const double b = 3.0;
  const int rows = 100000;
  Column c = *Column::Make(ValueType::kDouble);
  for (int i = 0; i < rows; ++i) c.AppendDouble(10.0);
  ASSERT_TRUE(ApplyLaplaceMechanism(&c, b, rng).ok());
  RunningMoments m;
  for (int i = 0; i < rows; ++i) m.Add(c.DoubleAt(i));
  EXPECT_NEAR(m.Mean(), 10.0, 0.1);
  EXPECT_NEAR(m.PopulationVariance(), 2.0 * b * b, 0.5);
}

TEST(LaplaceMechanismTest, NullsStayNull) {
  Rng rng(3);
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendDouble(1.0);
  c.AppendNull();
  ASSERT_TRUE(ApplyLaplaceMechanism(&c, 5.0, rng).ok());
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
}

TEST(LaplaceMechanismTest, Int64ColumnsRoundNoise) {
  Rng rng(4);
  const int rows = 50000;
  Column c = *Column::Make(ValueType::kInt64);
  for (int i = 0; i < rows; ++i) c.AppendInt64(100);
  ASSERT_TRUE(ApplyLaplaceMechanism(&c, 4.0, rng).ok());
  RunningMoments m;
  bool changed = false;
  for (int i = 0; i < rows; ++i) {
    m.Add(static_cast<double>(c.Int64At(i)));
    changed |= c.Int64At(i) != 100;
  }
  EXPECT_TRUE(changed);
  // Rounded Laplace noise is still zero-mean by symmetry.
  EXPECT_NEAR(m.Mean(), 100.0, 0.2);
}

TEST(LaplaceMechanismTest, RejectsStringColumn) {
  Rng rng(5);
  Column c = *Column::Make(ValueType::kString);
  c.AppendString("x");
  EXPECT_TRUE(ApplyLaplaceMechanism(&c, 1.0, rng).IsInvalidArgument());
}

TEST(LaplaceMechanismTest, RejectsNegativeScaleAndNullColumn) {
  Rng rng(6);
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendDouble(1.0);
  EXPECT_TRUE(ApplyLaplaceMechanism(&c, -1.0, rng).IsInvalidArgument());
  EXPECT_TRUE(ApplyLaplaceMechanism(nullptr, 1.0, rng).IsInvalidArgument());
}

TEST(LaplaceMechanismTest, RejectsNonFiniteScale) {
  Rng rng(6);
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendDouble(1.0);
  for (double b : {std::nan(""), kInf, -kInf}) {
    EXPECT_TRUE(
        ApplyLaplaceMechanismShard(&c, b, rng, 0, 1).IsInvalidArgument())
        << b;
    EXPECT_EQ(c.DoubleAt(0), 1.0);
  }
}

TEST(ColumnSensitivityTest, MaxMinusMin) {
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendDouble(3.0);
  c.AppendDouble(-2.0);
  c.AppendNull();
  c.AppendDouble(7.5);
  EXPECT_DOUBLE_EQ(*ColumnSensitivity(c), 9.5);
}

TEST(ColumnSensitivityTest, SingleValueIsZero) {
  Column c = *Column::Make(ValueType::kInt64);
  c.AppendInt64(5);
  EXPECT_DOUBLE_EQ(*ColumnSensitivity(c), 0.0);
}

TEST(ColumnSensitivityTest, AllNullFails) {
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendNull();
  auto r = ColumnSensitivity(c);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

TEST(ColumnSensitivityTest, RejectsStringColumn) {
  Column c = *Column::Make(ValueType::kString);
  c.AppendString("x");
  EXPECT_FALSE(ColumnSensitivity(c).ok());
}

Column DoubleColumn(const std::vector<double>& values) {
  Column c = *Column::Make(ValueType::kDouble);
  for (double v : values) c.AppendDouble(v);
  return c;
}

TEST(ColumnSensitivityTest, NanIsSkippedWhereverItSits) {
  const double nan = std::nan("");
  for (const std::vector<double>& values :
       {std::vector<double>{nan, 1.5, 4.0, 2.0, 3.0, 5.5},
        std::vector<double>{1.5, nan, 4.0, 2.0, 3.0, 5.5},
        std::vector<double>{1.5, 4.0, 2.0, 3.0, 5.5, nan}}) {
    auto delta = ColumnSensitivity(DoubleColumn(values));
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    EXPECT_EQ(*delta, 4.0);
  }
}

TEST(ColumnSensitivityTest, NanFirstInEveryShardIsSkipped) {
  // Two shards, each opening with a NaN and then a NULL; 2 threads run
  // them concurrently.
  const size_t rows = kRowsPerShard + 10;
  ASSERT_EQ(ShardCountForRows(rows), 2u);
  const size_t second = ShardBounds(rows, 2, 1).begin;
  Column c = *Column::Make(ValueType::kDouble);
  for (size_t r = 0; r < rows; ++r) {
    const size_t in_shard = r < second ? r : r - second;
    if (in_shard == 0) {
      c.AppendDouble(std::nan(""));
    } else if (in_shard == 1) {
      c.AppendNull();
    } else {
      c.AppendDouble(static_cast<double>(r % 100) - 50.0);
    }
  }
  ExecutionOptions exec;
  exec.num_threads = 2;
  EXPECT_EQ(*ColumnSensitivity(c, exec), 99.0);
  EXPECT_EQ(*ColumnSensitivity(c), 99.0);
}

TEST(ColumnSensitivityTest, OnlyNanAndNullFails) {
  Column c = DoubleColumn({std::nan(""), std::nan("")});
  c.AppendNull();
  EXPECT_TRUE(ColumnSensitivity(c).status().IsFailedPrecondition());
}

TEST(ColumnSensitivityTest, InfiniteValueIsInvalidArgument) {
  for (double inf : {kInf, -kInf}) {
    auto delta = ColumnSensitivity(DoubleColumn({1.5, inf, 4.0}));
    EXPECT_TRUE(delta.status().IsInvalidArgument()) << inf;
    EXPECT_TRUE(ColumnSensitivity(DoubleColumn({inf})).status()
                    .IsInvalidArgument());
  }
}

TEST(ColumnSensitivityTest, AttributeSensitivityNamesTheAttribute) {
  Schema schema = *Schema::Make({Field::Numerical("x", ValueType::kDouble)});
  Table table =
      *Table::Make(schema, {DoubleColumn({1.0, kInf, std::nan("")})});
  auto delta = AttributeSensitivity(table, 0);
  ASSERT_TRUE(delta.status().IsInvalidArgument());
  EXPECT_NE(delta.status().message().find("attribute 'x'"), std::string::npos)
      << delta.status().ToString();
}

}  // namespace
}  // namespace privateclean
