#include "table/column.h"

#include <gtest/gtest.h>

namespace privateclean {
namespace {

TEST(ColumnTest, MakeRejectsNullType) {
  EXPECT_FALSE(Column::Make(ValueType::kNull).ok());
}

TEST(ColumnTest, TypedAppendsAndGetters) {
  Column c = *Column::Make(ValueType::kInt64);
  c.AppendInt64(1);
  c.AppendInt64(-5);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.Int64At(0), 1);
  EXPECT_EQ(c.Int64At(1), -5);
  EXPECT_EQ(c.null_count(), 0u);
}

TEST(ColumnTest, NullHandling) {
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendDouble(1.5);
  c.AppendNull();
  c.AppendDouble(2.5);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.null_count(), 1u);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.ValueAt(1), Value::Null());
  EXPECT_EQ(c.ValueAt(2), Value(2.5));
}

TEST(ColumnTest, AppendValueTypeChecked) {
  Column c = *Column::Make(ValueType::kString);
  EXPECT_TRUE(c.AppendValue(Value("ok")).ok());
  EXPECT_TRUE(c.AppendValue(Value::Null()).ok());
  Status st = c.AppendValue(Value(1));
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(c.size(), 2u);  // Failed append added nothing.
}

TEST(ColumnTest, SetValueOverwrites) {
  Column c = *Column::Make(ValueType::kString);
  c.AppendString("a");
  c.AppendString("b");
  EXPECT_TRUE(c.SetValue(0, Value("z")).ok());
  EXPECT_EQ(c.StringAt(0), "z");
}

TEST(ColumnTest, SetValueNullTransitionsTrackNullCount) {
  Column c = *Column::Make(ValueType::kInt64);
  c.AppendInt64(1);
  c.AppendNull();
  EXPECT_EQ(c.null_count(), 1u);
  EXPECT_TRUE(c.SetValue(0, Value::Null()).ok());
  EXPECT_EQ(c.null_count(), 2u);
  EXPECT_TRUE(c.SetValue(1, Value(9)).ok());
  EXPECT_EQ(c.null_count(), 1u);
  EXPECT_TRUE(c.SetValue(1, Value(10)).ok());  // Non-null -> non-null.
  EXPECT_EQ(c.null_count(), 1u);
}

TEST(ColumnTest, SetValueRejectsWrongTypeAndRange) {
  Column c = *Column::Make(ValueType::kInt64);
  c.AppendInt64(1);
  EXPECT_TRUE(c.SetValue(0, Value("x")).IsInvalidArgument());
  EXPECT_TRUE(c.SetValue(5, Value(1)).IsOutOfRange());
}

TEST(ColumnTest, NumericAt) {
  Column ci = *Column::Make(ValueType::kInt64);
  ci.AppendInt64(4);
  ci.AppendNull();
  EXPECT_DOUBLE_EQ(ci.NumericAt(0), 4.0);
  EXPECT_DOUBLE_EQ(ci.NumericAt(1), 0.0);
  Column cd = *Column::Make(ValueType::kDouble);
  cd.AppendDouble(2.5);
  EXPECT_DOUBLE_EQ(cd.NumericAt(0), 2.5);
}

TEST(ColumnTest, RawAccess) {
  Column c = *Column::Make(ValueType::kDouble);
  c.AppendDouble(1.0);
  c.AppendDouble(2.0);
  EXPECT_EQ(c.doubles().size(), 2u);
  (*c.mutable_doubles())[0] = 10.0;
  EXPECT_DOUBLE_EQ(c.DoubleAt(0), 10.0);
}

TEST(ColumnTest, ReserveDoesNotChangeSize) {
  Column c = *Column::Make(ValueType::kString);
  c.Reserve(100);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.empty());
}

TEST(ColumnTest, NullPlaceholderKeepsVectorsAligned) {
  Column c = *Column::Make(ValueType::kString);
  c.AppendNull();
  c.AppendString("x");
  EXPECT_EQ(c.codes().size(), 2u);
  EXPECT_EQ(c.CodeAt(0), kNullCode);
  EXPECT_EQ(c.StringAt(1), "x");
}

TEST(ColumnTest, StringStorageIsDictionaryEncoded) {
  Column c = *Column::Make(ValueType::kString);
  c.AppendString("red");
  c.AppendString("blue");
  c.AppendString("red");
  c.AppendString("red");
  // Two distinct strings, four dense codes, repeats share a code.
  EXPECT_EQ(c.dictionary().size(), 2u);
  EXPECT_EQ(c.codes().size(), 4u);
  EXPECT_EQ(c.CodeAt(0), c.CodeAt(2));
  EXPECT_EQ(c.CodeAt(0), c.CodeAt(3));
  EXPECT_NE(c.CodeAt(0), c.CodeAt(1));
  EXPECT_EQ(c.dictionary().At(c.CodeAt(1)), "blue");
}

TEST(ColumnTest, SetValueReusesAndExtendsDictionary) {
  Column c = *Column::Make(ValueType::kString);
  c.AppendString("a");
  c.AppendString("b");
  ASSERT_TRUE(c.SetValue(0, Value("b")).ok());
  EXPECT_EQ(c.CodeAt(0), c.CodeAt(1));
  EXPECT_EQ(c.dictionary().size(), 2u);  // "a" stays interned.
  ASSERT_TRUE(c.SetValue(0, Value("z")).ok());
  EXPECT_EQ(c.dictionary().size(), 3u);
  EXPECT_EQ(c.StringAt(0), "z");
}

TEST(ColumnTest, SelectRowsPreservesDictionaryAndNulls) {
  Column c = *Column::Make(ValueType::kString);
  c.AppendString("a");
  c.AppendNull();
  c.AppendString("b");
  Column taken = c.SelectRows({2, 1, 2});
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken.StringAt(0), "b");
  EXPECT_TRUE(taken.IsNull(1));
  EXPECT_EQ(taken.StringAt(2), "b");
  EXPECT_EQ(taken.null_count(), 1u);
  // The dictionary is carried over wholesale: "a" is still interned.
  EXPECT_EQ(taken.dictionary().size(), c.dictionary().size());
}

}  // namespace
}  // namespace privateclean
