#include "provenance/provenance_manager.h"

#include <gtest/gtest.h>

#include "cleaning/extract.h"
#include "cleaning/merge.h"
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
      .Row({Value("Mech. Eng."), Value(2.0)});
  return *b.Finish();
}

TEST(ProvenanceManagerTest, SnapshotsDiscreteAttributes) {
  Table t = TestTable();
  ProvenanceManager m = *ProvenanceManager::Create(t);
  EXPECT_TRUE(m.Tracks("major"));
  EXPECT_FALSE(m.Tracks("score"));  // Numerical: no provenance.
  EXPECT_FALSE(m.Tracks("nope"));
  EXPECT_EQ((*m.DirtyDomain("major"))->size(), 3u);
}

TEST(ProvenanceManagerTest, IdentityGraphBeforeCleaning) {
  Table t = TestTable();
  ProvenanceManager m = *ProvenanceManager::Create(t);
  ProvenanceGraph g = *m.GraphFor(t, "major");
  EXPECT_TRUE(g.is_fork_free());
  EXPECT_EQ(g.num_dirty_values(), g.num_clean_values());
}

TEST(ProvenanceManagerTest, GraphReflectsCleaning) {
  Table t = TestTable();
  ProvenanceManager m = *ProvenanceManager::Create(t);
  ASSERT_TRUE(m.SnapshotColumns(t).ok());
  FindReplace fix = FindReplace::Single(
      "major", Value("Mechanical Engineering"), Value("Mech. Eng."));
  ASSERT_TRUE(fix.Apply(&t).ok());
  ProvenanceGraph g = *m.GraphFor(t, "major");
  EXPECT_EQ(g.num_dirty_values(), 3u);
  EXPECT_EQ(g.num_clean_values(), 2u);
  EXPECT_DOUBLE_EQ(
      g.WeightedSelectivity({*g.clean_domain().IndexOf(Value("Mech. Eng."))}),
      2.0);
}

TEST(ProvenanceManagerTest, ComposedCleanersCompose) {
  // a -> b then b -> c: the graph must map dirty a directly to clean c.
  Schema s = *Schema::Make({Field::Discrete("d")});
  TableBuilder b(s);
  b.Row({Value("a")}).Row({Value("b")}).Row({Value("z")});
  Table t = *b.Finish();
  ProvenanceManager m = *ProvenanceManager::Create(t);
  ASSERT_TRUE(m.SnapshotColumns(t).ok());
  ASSERT_TRUE(
      FindReplace::Single("d", Value("a"), Value("b")).Apply(&t).ok());
  ASSERT_TRUE(
      FindReplace::Single("d", Value("b"), Value("c")).Apply(&t).ok());
  ProvenanceGraph g = *m.GraphFor(t, "d");
  const size_t c = *g.clean_domain().IndexOf(Value("c"));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(*g.dirty_domain().IndexOf(Value("a")), c), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(*g.dirty_domain().IndexOf(Value("b")), c), 1.0);
  EXPECT_DOUBLE_EQ(g.WeightedSelectivity({c}), 2.0);
}

TEST(ProvenanceManagerTest, CopiesNoColumnBeforeSnapshotColumns) {
  // Until SnapshotColumns() the current column is its own dirty side: a
  // change made without it shows on both sides, so no copy was held.
  Table t = TestTable();
  ProvenanceManager m = *ProvenanceManager::Create(t);
  ASSERT_TRUE(FindReplace::Single("major", Value("Mechanical Engineering"),
                                  Value("Mech. Eng."))
                  .Apply(&t)
                  .ok());
  ProvenanceGraph g = *m.GraphFor(t, "major");
  EXPECT_EQ(g.num_clean_values(), 2u);
  EXPECT_DOUBLE_EQ(
      g.WeightedSelectivity({*g.clean_domain().IndexOf(Value("Mech. Eng."))}),
      1.0);
  // A second SnapshotColumns() keeps the first copy.
  ASSERT_TRUE(m.SnapshotColumns(t).ok());
  ASSERT_TRUE(
      FindReplace::Single("major", Value("Math"), Value("Mech. Eng."))
          .Apply(&t)
          .ok());
  ASSERT_TRUE(m.SnapshotColumns(t).ok());
  g = *m.GraphFor(t, "major");
  EXPECT_EQ(g.num_clean_values(), 1u);
  EXPECT_DOUBLE_EQ(g.WeightedSelectivity({0}), 2.0);
}

TEST(ProvenanceManagerTest, ExplicitDomainsOverrideSnapshots) {
  Table t = TestTable();
  // Pretend the randomization-time domain had an extra value.
  Domain domain = Domain::FromValues(
      {Value("Mech. Eng."), Value("Mechanical Engineering"), Value("Math"),
       Value("Ghost")});
  std::unordered_map<std::string, Domain> domains{{"major", domain}};
  ProvenanceManager m = *ProvenanceManager::Create(t, domains);
  ProvenanceGraph g = *m.GraphFor(t, "major");
  EXPECT_EQ(g.num_dirty_values(), 4u);
}

TEST(ProvenanceManagerTest, DerivedAttributeAnchorsToSource) {
  Table t = TestTable();
  ProvenanceManager m = *ProvenanceManager::Create(t);
  ExtractAttribute extract(
      "is_engineering", {"major"},
      [](const std::vector<Value>& tuple) {
        const Value& v = tuple[0];
        bool eng = !v.is_null() &&
                   v.AsString().find("Eng") != std::string::npos;
        return Value(eng ? "yes" : "no");
      });
  ASSERT_TRUE(extract.Apply(&t).ok());
  ASSERT_TRUE(m.RegisterDerivedAttribute("is_engineering", "major").ok());
  EXPECT_TRUE(m.Tracks("is_engineering"));
  EXPECT_EQ(*m.AnchorOf("is_engineering"), "major");
  ProvenanceGraph g = *m.GraphFor(t, "is_engineering");
  EXPECT_EQ(g.num_dirty_values(), 3u);  // Dirty side = major's domain.
  EXPECT_EQ(g.num_clean_values(), 2u);  // yes / no.
  EXPECT_DOUBLE_EQ(
      g.WeightedSelectivity({*g.clean_domain().IndexOf(Value("yes"))}), 2.0);
}

TEST(ProvenanceManagerTest, DerivedChainPathCompresses) {
  Table t = TestTable();
  ProvenanceManager m = *ProvenanceManager::Create(t);
  ASSERT_TRUE(m.RegisterDerivedAttribute("d1", "major").ok());
  ASSERT_TRUE(m.RegisterDerivedAttribute("d2", "d1").ok());
  EXPECT_EQ(*m.AnchorOf("d2"), "major");
}

TEST(ProvenanceManagerTest, RegisterDuplicateFails) {
  Table t = TestTable();
  ProvenanceManager m = *ProvenanceManager::Create(t);
  EXPECT_TRUE(m.RegisterDerivedAttribute("major", "major")
                  .IsAlreadyExists());
  ASSERT_TRUE(m.RegisterDerivedAttribute("x", "major").ok());
  EXPECT_TRUE(m.RegisterDerivedAttribute("x", "major").IsAlreadyExists());
}

TEST(ProvenanceManagerTest, RegisterUnknownSourceFails) {
  Table t = TestTable();
  ProvenanceManager m = *ProvenanceManager::Create(t);
  EXPECT_TRUE(m.RegisterDerivedAttribute("x", "nope").IsNotFound());
}

TEST(ProvenanceManagerTest, GraphForUntrackedAttributeFails) {
  Table t = TestTable();
  ProvenanceManager m = *ProvenanceManager::Create(t);
  EXPECT_FALSE(m.GraphFor(t, "score").ok());
  EXPECT_FALSE(m.GraphFor(t, "nope").ok());
}

TEST(ProvenanceManagerTest, AnchorOfOriginalIsItself) {
  Table t = TestTable();
  ProvenanceManager m = *ProvenanceManager::Create(t);
  EXPECT_EQ(*m.AnchorOf("major"), "major");
  EXPECT_TRUE(m.AnchorOf("nope").status().IsNotFound());
}

}  // namespace
}  // namespace privateclean
