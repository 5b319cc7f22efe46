#include "cleaning/merge.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cleaning/transform.h"
#include "parallel_harness.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

Schema TestSchema() {
  return *Schema::Make({Field::Discrete("major"),
                        Field::Numerical("score", ValueType::kDouble)});
}

Table TestTable() {
  TableBuilder b(TestSchema());
  b.Row({Value("Mech. Eng."), Value(4.0)})
      .Row({Value("Mechanical Engineering"), Value(3.0)})
      .Row({Value("Math"), Value(5.0)})
      .Row({Value("ERR_17"), Value(2.0)})
      .Row({Value::Null(), Value(1.0)});
  return *b.Finish();
}

TEST(FindReplaceTest, SingleRule) {
  Table t = TestTable();
  FindReplace fix = FindReplace::Single(
      "major", Value("Mechanical Engineering"), Value("Mech. Eng."));
  ASSERT_TRUE(fix.Apply(&t).ok());
  EXPECT_EQ(*t.GetValue(0, "major"), Value("Mech. Eng."));
  EXPECT_EQ(*t.GetValue(1, "major"), Value("Mech. Eng."));
  EXPECT_EQ(*t.GetValue(2, "major"), Value("Math"));
}

TEST(FindReplaceTest, MultipleRulesApplySimultaneously) {
  // a->b and b->a swap rather than chain.
  Schema s = *Schema::Make({Field::Discrete("d")});
  TableBuilder b(s);
  b.Row({Value("a")}).Row({Value("b")});
  Table t = *b.Finish();
  FindReplace swap("d", {{Value("a"), Value("b")}, {Value("b"), Value("a")}});
  ASSERT_TRUE(swap.Apply(&t).ok());
  EXPECT_EQ(*t.GetValue(0, "d"), Value("b"));
  EXPECT_EQ(*t.GetValue(1, "d"), Value("a"));
}

TEST(FindReplaceTest, CanReplaceNull) {
  Table t = TestTable();
  FindReplace fix = FindReplace::Single("major", Value::Null(),
                                        Value("Undeclared"));
  ASSERT_TRUE(fix.Apply(&t).ok());
  EXPECT_EQ(*t.GetValue(4, "major"), Value("Undeclared"));
}

TEST(FindReplaceTest, UntouchedValuesPassThrough) {
  Table t = TestTable();
  FindReplace fix = FindReplace::Single("major", Value("Absent"),
                                        Value("X"));
  ASSERT_TRUE(fix.Apply(&t).ok());
  EXPECT_EQ(*t.GetValue(2, "major"), Value("Math"));
}

TEST(FindReplaceTest, RejectsNumericalAttribute) {
  Table t = TestTable();
  FindReplace bad = FindReplace::Single("score", Value(1.0), Value(2.0));
  EXPECT_TRUE(bad.Apply(&t).IsInvalidArgument());
}

TEST(FindReplaceTest, KindIsMerge) {
  FindReplace fr = FindReplace::Single("major", Value("a"), Value("b"));
  EXPECT_EQ(fr.kind(), CleanerKind::kMerge);
  EXPECT_EQ(fr.num_replacements(), 1u);
}

TEST(DomainMergeTest, UdfSeesValueAndDomain) {
  Table t = TestTable();
  // Merge everything containing "Mech" to the most frequent such value.
  DomainMerge merge("major", [](const Value& v, const Domain& domain) {
    (void)domain;
    if (!v.is_null() && v.AsString().find("Mech") != std::string::npos) {
      return Value("Mechanical Engineering");
    }
    return v;
  });
  ASSERT_TRUE(merge.Apply(&t).ok());
  EXPECT_EQ(*t.GetValue(0, "major"), Value("Mechanical Engineering"));
  EXPECT_EQ(*t.GetValue(1, "major"), Value("Mechanical Engineering"));
  EXPECT_EQ(*t.GetValue(2, "major"), Value("Math"));
}

TEST(DomainMergeTest, SimultaneousSemantics) {
  // The domain passed to the UDF is the pre-merge domain for every
  // distinct value, so later evaluations don't observe earlier rewrites.
  Table t = TestTable();
  std::vector<size_t> seen_sizes;
  DomainMerge merge("major", [&seen_sizes](const Value& v,
                                           const Domain& domain) {
    seen_sizes.push_back(domain.size());
    return v;
  });
  ASSERT_TRUE(merge.Apply(&t).ok());
  for (size_t size : seen_sizes) EXPECT_EQ(size, 5u);
}

TEST(MergeToNullTest, SpuriousValuesBecomeNull) {
  Table t = TestTable();
  MergeToNull clean("major", [](const Value& v) {
    return !v.is_null() && v.AsString().rfind("ERR_", 0) == 0;
  });
  ASSERT_TRUE(clean.Apply(&t).ok());
  EXPECT_TRUE(t.GetValue(3, "major")->is_null());
  EXPECT_EQ(*t.GetValue(2, "major"), Value("Math"));
  EXPECT_TRUE(t.GetValue(4, "major")->is_null());  // Already null stays.
}

TEST(MergeToNullTest, NoopWhenNothingSpurious) {
  Table t = TestTable();
  MergeToNull clean("major", [](const Value&) { return false; });
  ASSERT_TRUE(clean.Apply(&t).ok());
  EXPECT_EQ((*t.ColumnByName("major"))->null_count(), 1u);
}

TEST(MergeToNullTest, RejectsNullTable) {
  MergeToNull clean("major", [](const Value&) { return false; });
  EXPECT_TRUE(clean.Apply(nullptr).IsInvalidArgument());
}

TEST(CleanerRemapTest, FailingCleanerLeavesTheColumnAsItWas) {
  // Every result is type-checked before anything is interned or
  // written: a rule or UDF yielding a value of the wrong type fails the
  // whole call with SetValue's message and leaves codes or ints,
  // validity, null count and dictionary exactly as they were.
  Table strings = [] {
    TableBuilder b(*Schema::Make({Field::Discrete("g")}));
    for (const char* v : {"a", "b", "a", "c", "b"}) b.Row({Value(v)});
    b.Row({Value::Null()});
    return *b.Finish();
  }();
  Table ints = [] {
    TableBuilder b(*Schema::Make(
        {Field{"g", ValueType::kInt64, AttributeKind::kDiscrete}}));
    for (int64_t v : {1, 2, 1, 3, 2}) b.Row({Value(v)});
    b.Row({Value::Null()});
    return *b.Finish();
  }();
  auto bump = [](const Value& v) {
    if (v.is_null()) return v;
    return v.type() == ValueType::kString ? Value(v.AsString() + "!")
                                          : Value(v.AsInt64() + 100);
  };
  // c (or 3) maps to the wrong type; everything else to a new value.
  auto bad = [bump](const Value& v) {
    if (v == Value("c")) return Value(int64_t{7});
    if (v == Value(int64_t{3})) return Value("x");
    return bump(v);
  };
  struct Case {
    const Table* table;
    std::unique_ptr<Cleaner> cleaner;
    std::string message;
  };
  const std::string into_string = "cannot set int64 value in string column";
  const std::string into_int = "cannot set string value in int64 column";
  std::vector<Case> cases;
  cases.push_back({&strings,
                   std::make_unique<FindReplace>(
                       "g", std::unordered_map<Value, Value, ValueHash>{
                                {Value("a"), Value("x")},
                                {Value("c"), Value(int64_t{7})}}),
                   into_string});
  cases.push_back({&strings,
                   std::make_unique<DomainMerge>(
                       "g", [bad](const Value& v, const Domain&) {
                         return bad(v);
                       }),
                   into_string});
  cases.push_back(
      {&strings, std::make_unique<ValueTransform>("g", bad), into_string});
  cases.push_back({&ints,
                   std::make_unique<FindReplace>(
                       "g", std::unordered_map<Value, Value, ValueHash>{
                                {Value(int64_t{1}), Value(int64_t{10})},
                                {Value(int64_t{3}), Value("x")}}),
                   into_int});
  cases.push_back({&ints,
                   std::make_unique<DomainMerge>(
                       "g", [bad](const Value& v, const Domain&) {
                         return bad(v);
                       }),
                   into_int});
  cases.push_back(
      {&ints, std::make_unique<ValueTransform>("g", bad), into_int});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.cleaner->name() + " on " +
                 ValueTypeToString(c.table->column(0).type()));
    Table t = c.table->Clone();
    Status st = c.cleaner->Apply(&t);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_EQ(st.message(), c.message);
    ExpectColumnsBitIdentical(t.column(0), c.table->column(0),
                              "column after the failed call");
  }
}

TEST(CleanerKindTest, Names) {
  EXPECT_STREQ(CleanerKindToString(CleanerKind::kExtract), "extract");
  EXPECT_STREQ(CleanerKindToString(CleanerKind::kTransform), "transform");
  EXPECT_STREQ(CleanerKindToString(CleanerKind::kMerge), "merge");
}

}  // namespace
}  // namespace privateclean
