#include "provenance/provenance_graph.h"

#include <gtest/gtest.h>

namespace privateclean {
namespace {

/// Index of `v` in the graph's clean / dirty domain.
size_t Clean(const ProvenanceGraph& g, const Value& v) {
  return *g.clean_domain().IndexOf(v);
}
size_t Dirty(const ProvenanceGraph& g, const Value& v) {
  return *g.dirty_domain().IndexOf(v);
}

Column MakeColumn(const std::vector<Value>& values) {
  Column c = *Column::Make(ValueType::kString);
  for (const Value& v : values) {
    Status st = c.AppendValue(v);
    EXPECT_TRUE(st.ok());
  }
  return c;
}

TEST(ProvenanceGraphTest, IdentityGraph) {
  std::vector<Value> values{Value("a"), Value("b"), Value("a"), Value("c")};
  Column dirty = MakeColumn(values);
  Column clean = MakeColumn(values);
  Domain domain = Domain::FromValues(values);
  ProvenanceGraph g = *ProvenanceGraph::Build(dirty, clean, domain);
  EXPECT_EQ(g.num_dirty_values(), 3u);
  EXPECT_EQ(g.num_clean_values(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.is_fork_free());
  EXPECT_DOUBLE_EQ(g.EdgeWeight(Dirty(g, Value("a")), Clean(g, Value("a"))), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(Dirty(g, Value("a")), Clean(g, Value("b"))), 0.0);
}

TEST(ProvenanceGraphTest, MergeGraphExample5) {
  // Paper Example 5: Civil Eng., Mechanical Eng., M.E -> Engineering;
  // Math stays. Predicate on "Engineering" has L_pred of size 3.
  std::vector<Value> dirty_values{Value("Civil Engineering"),
                                  Value("Mechanical Engineering"),
                                  Value("M.E"), Value("Math")};
  std::vector<Value> clean_values{Value("Engineering"), Value("Engineering"),
                                  Value("Engineering"), Value("Math")};
  Column dirty = MakeColumn(dirty_values);
  Column clean = MakeColumn(clean_values);
  Domain domain = Domain::FromValues(dirty_values);
  ProvenanceGraph g = *ProvenanceGraph::Build(dirty, clean, domain);
  EXPECT_EQ(g.num_dirty_values(), 4u);
  EXPECT_EQ(g.num_clean_values(), 2u);
  EXPECT_TRUE(g.is_fork_free());
  std::vector<size_t> m_pred{Clean(g, Value("Engineering"))};
  EXPECT_DOUBLE_EQ(g.WeightedSelectivity(m_pred), 3.0);
  EXPECT_EQ(g.UnweightedSelectivity(m_pred), 3u);
  auto parents = g.ParentSet(m_pred);
  EXPECT_EQ(parents.size(), 3u);
}

TEST(ProvenanceGraphTest, ForkedGraphExample6) {
  // Paper Example 6: NULL maps half to "John Doe", half to "Jane Smith".
  std::vector<Value> dirty_values{Value("John Doe"), Value::Null(),
                                  Value::Null()};
  std::vector<Value> clean_values{Value("John Doe"), Value("John Doe"),
                                  Value("Jane Smith")};
  Column dirty = MakeColumn(dirty_values);
  Column clean = MakeColumn(clean_values);
  Domain domain = Domain::FromValues(dirty_values);
  ProvenanceGraph g = *ProvenanceGraph::Build(dirty, clean, domain);
  EXPECT_FALSE(g.is_fork_free());
  EXPECT_DOUBLE_EQ(g.EdgeWeight(Dirty(g, Value::Null()), Clean(g, Value("John Doe"))), 0.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(Dirty(g, Value::Null()), Clean(g, Value("Jane Smith"))), 0.5);
  // Weighted selectivity of {"John Doe"}: 1 (itself) + 0.5 (null's share).
  EXPECT_DOUBLE_EQ(g.WeightedSelectivity({Clean(g, Value("John Doe"))}), 1.5);
  // Unweighted cut counts both parents fully.
  EXPECT_EQ(g.UnweightedSelectivity({Clean(g, Value("John Doe"))}), 2u);
}

TEST(ProvenanceGraphTest, WeightsArePerDirtyRowFractions) {
  // Dirty value "x" has 4 rows: 3 to "a", 1 to "b".
  std::vector<Value> dirty_values{Value("x"), Value("x"), Value("x"),
                                  Value("x")};
  std::vector<Value> clean_values{Value("a"), Value("a"), Value("a"),
                                  Value("b")};
  ProvenanceGraph g = *ProvenanceGraph::Build(
      MakeColumn(dirty_values), MakeColumn(clean_values),
      Domain::FromValues(dirty_values));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(Dirty(g, Value("x")), Clean(g, Value("a"))), 0.75);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(Dirty(g, Value("x")), Clean(g, Value("b"))), 0.25);
}

TEST(ProvenanceGraphTest, OutgoingWeightsSumToOne) {
  std::vector<Value> dirty_values, clean_values;
  const char* targets[] = {"t0", "t1", "t2"};
  for (int i = 0; i < 60; ++i) {
    dirty_values.push_back(Value("d" + std::to_string(i % 4)));
    clean_values.push_back(Value(targets[i % 3]));
  }
  Domain domain = Domain::FromValues(dirty_values);
  ProvenanceGraph g = *ProvenanceGraph::Build(
      MakeColumn(dirty_values), MakeColumn(clean_values), domain);
  for (size_t d = 0; d < domain.size(); ++d) {
    double total = 0.0;
    for (const char* t : targets) {
      total += g.EdgeWeight(d, Clean(g, Value(t)));
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(ProvenanceGraphTest, WeightedSelectivityOfFullCleanDomainIsN) {
  // Selecting every clean value must recover all N dirty values' mass.
  std::vector<Value> dirty_values, clean_values;
  for (int i = 0; i < 40; ++i) {
    dirty_values.push_back(Value("d" + std::to_string(i % 8)));
    clean_values.push_back(Value("c" + std::to_string(i % 3)));
  }
  Domain domain = Domain::FromValues(dirty_values);
  ProvenanceGraph g = *ProvenanceGraph::Build(
      MakeColumn(dirty_values), MakeColumn(clean_values), domain);
  std::vector<size_t> all_clean;
  for (size_t i = 0; i < g.num_clean_values(); ++i) all_clean.push_back(i);
  EXPECT_NEAR(g.WeightedSelectivity(all_clean), 8.0, 1e-12);
}

TEST(ProvenanceGraphTest, WeightedSelectivityNeverExceedsN) {
  // One dirty value forked over 9 clean values, one row each: the nine
  // rounded weights 1/9 add up to 1 + 2^-52, but the cut of all nine is
  // N = 1, as the estimators require.
  std::vector<Value> dirty_values, clean_values;
  for (int i = 0; i < 9; ++i) {
    dirty_values.push_back(Value("x"));
    clean_values.push_back(Value("c" + std::to_string(i)));
  }
  ProvenanceGraph g = *ProvenanceGraph::Build(
      MakeColumn(dirty_values), MakeColumn(clean_values),
      Domain::FromValues(dirty_values));
  std::vector<size_t> all_clean;
  for (size_t i = 0; i < g.num_clean_values(); ++i) all_clean.push_back(i);
  EXPECT_EQ(g.WeightedSelectivity(all_clean), 1.0);
  EXPECT_DOUBLE_EQ(g.WeightedSelectivity({0}), 1.0 / 9.0);
}

TEST(ProvenanceGraphTest, PredicateValueAbsentFromRelationIgnored) {
  std::vector<Value> values{Value("a"), Value("b")};
  ProvenanceGraph g = *ProvenanceGraph::Build(
      MakeColumn(values), MakeColumn(values), Domain::FromValues(values));
  // A predicate value the relation lacks matches no clean value, so its
  // M_pred is empty.
  EXPECT_FALSE(g.clean_domain().Contains(Value("zzz")));
  EXPECT_DOUBLE_EQ(g.WeightedSelectivity({}), 0.0);
  EXPECT_EQ(g.UnweightedSelectivity({}), 0u);
  EXPECT_TRUE(g.ParentSet({}).empty());
}

TEST(ProvenanceGraphTest, MergeRate) {
  // 4 dirty values, 3 merged into 1 clean value + 1 untouched.
  std::vector<Value> dirty_values{Value("a"), Value("b"), Value("c"),
                                  Value("d")};
  std::vector<Value> clean_values{Value("m"), Value("m"), Value("m"),
                                  Value("d")};
  ProvenanceGraph g = *ProvenanceGraph::Build(
      MakeColumn(dirty_values), MakeColumn(clean_values),
      Domain::FromValues(dirty_values));
  // l/N = 3/4, l'/N' = 1/2 -> merge rate 0.25.
  EXPECT_NEAR(g.MergeRate({Clean(g, Value("m"))}), 0.25, 1e-12);
  // Untouched value: l/N = 1/4, l'/N' = 1/2 -> negative merge rate.
  EXPECT_NEAR(g.MergeRate({Clean(g, Value("d"))}), -0.25, 1e-12);
}

TEST(ProvenanceGraphTest, IdentityMergeRateIsZero) {
  std::vector<Value> values{Value("a"), Value("b"), Value("c")};
  ProvenanceGraph g = *ProvenanceGraph::Build(
      MakeColumn(values), MakeColumn(values), Domain::FromValues(values));
  EXPECT_NEAR(g.MergeRate({Clean(g, Value("a"))}), 0.0, 1e-12);
  EXPECT_NEAR(g.MergeRate({Clean(g, Value("a")), Clean(g, Value("b"))}), 0.0, 1e-12);
}

TEST(ProvenanceGraphTest, RejectsLengthMismatch) {
  Column dirty = MakeColumn({Value("a"), Value("b")});
  Column clean = MakeColumn({Value("a")});
  EXPECT_FALSE(ProvenanceGraph::Build(
                   dirty, clean, Domain::FromValues({Value("a"), Value("b")}))
                   .ok());
}

TEST(ProvenanceGraphTest, RejectsSnapshotValueOutsideDomain) {
  Column dirty = MakeColumn({Value("a"), Value("rogue")});
  Column clean = MakeColumn({Value("a"), Value("a")});
  auto r =
      ProvenanceGraph::Build(dirty, clean, Domain::FromValues({Value("a")}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ProvenanceGraphTest, RejectsEmptyDomain) {
  Column dirty = MakeColumn({});
  Column clean = MakeColumn({});
  EXPECT_FALSE(
      ProvenanceGraph::Build(dirty, clean, Domain::FromValues({})).ok());
}

TEST(ProvenanceGraphTest, DomainLargerThanRelation) {
  // A dirty domain value with zero surviving rows still counts toward N.
  std::vector<Value> domain_values{Value("a"), Value("b"), Value("ghost")};
  Column dirty = MakeColumn({Value("a"), Value("b")});
  Column clean = MakeColumn({Value("a"), Value("b")});
  ProvenanceGraph g = *ProvenanceGraph::Build(
      dirty, clean, Domain::FromValues(domain_values));
  EXPECT_EQ(g.num_dirty_values(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

}  // namespace
}  // namespace privateclean
