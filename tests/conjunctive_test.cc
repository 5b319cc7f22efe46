#include "core/conjunctive.h"

#include <gtest/gtest.h>

#include <cmath>

#include "cleaning/merge.h"
#include "common/statistics.h"
#include "conjunctive_reference.h"
#include "core/private_table.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

using testing_reference::ReferenceQuadrants;
using testing_reference::TestRowIndex;

Schema TwoAttrSchema() {
  return *Schema::Make({Field::Discrete("dept"), Field::Discrete("campus"),
                        Field::Numerical("score", ValueType::kDouble)});
}

/// 900 rows over 6 departments x 3 campuses with a skewed joint
/// distribution.
Table TwoAttrTable(uint64_t seed = 7) {
  Rng rng(seed);
  const char* depts[] = {"EECS", "Math", "Bio", "Physics", "Chem", "Hist"};
  const char* campuses[] = {"North", "South", "West"};
  ZipfianSampler dept_z(6, 1.5);
  ZipfianSampler campus_z(3, 1.0);
  TableBuilder b(TwoAttrSchema());
  for (int i = 0; i < 900; ++i) {
    b.Row({Value(depts[dept_z.Sample(rng)]),
           Value(campuses[campus_z.Sample(rng)]),
           Value(rng.UniformRealRange(0.0, 5.0))});
  }
  return *b.Finish();
}

TEST(ConjunctiveScanTest, QuadrantsPartitionTheRelation) {
  Table t = TwoAttrTable();
  ConjunctiveScanStats stats = *CountConjunctiveQuadrants(
      t, Predicate::Equals("dept", "EECS"), TestRowIndex(t, "dept"),
      Predicate::Equals("campus", "North"), TestRowIndex(t, "campus"));
  EXPECT_EQ(stats.count_tt + stats.count_tf + stats.count_ft +
                stats.count_ff,
            stats.total_rows);
  EXPECT_EQ(stats.total_rows, 900u);
  // Marginals agree with single-predicate counts.
  size_t eecs =
      *Predicate::Equals("dept", "EECS").CountMatches(t);
  EXPECT_EQ(stats.count_tt + stats.count_tf, eecs);
}

TEST(ConjunctiveScanTest, RejectsSameAttribute) {
  Table t = TwoAttrTable();
  const RowIndex dept = TestRowIndex(t, "dept");
  auto r = CountConjunctiveQuadrants(t, Predicate::Equals("dept", "EECS"),
                                     dept, Predicate::Equals("dept", "Math"),
                                     dept);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ConjunctiveEstimatorTest, NoPrivacyIsNominal) {
  ConjunctiveScanStats stats;
  stats.total_rows = 1000;
  stats.count_tt = 120;
  stats.count_tf = 180;
  stats.count_ft = 200;
  stats.count_ff = 500;
  EstimationInputs a;
  a.p = 0.0;
  a.l = 2.0;
  a.n = 6.0;
  EstimationInputs b = a;
  QueryResult r = *EstimateConjunctiveCount(stats, a, b);
  EXPECT_DOUBLE_EQ(r.estimate, 120.0);
}

TEST(ConjunctiveEstimatorTest, ReducesToSingleWhenOtherIsWholeDomain) {
  // If predicate b selects the entire domain (l = N), b's randomization
  // never flips membership and the estimate must match the single-
  // predicate count estimator on a.
  ConjunctiveScanStats stats;
  stats.total_rows = 1000;
  stats.count_tt = 250;
  stats.count_tf = 0;
  stats.count_ft = 750;
  stats.count_ff = 0;
  EstimationInputs a;
  a.p = 0.3;
  a.l = 2.0;
  a.n = 10.0;
  EstimationInputs b;
  b.p = 0.3;
  b.l = 5.0;
  b.n = 5.0;  // l == N: predicate always true.
  QueryResult joint = *EstimateConjunctiveCount(stats, a, b);
  QueryScanStats single;
  single.total_rows = 1000;
  single.matching_rows = 250;
  QueryResult alone = *EstimateCount(single, a);
  EXPECT_NEAR(joint.estimate, alone.estimate, 1e-9);
}

TEST(ConjunctiveEstimatorTest, RejectsInvalidInputs) {
  ConjunctiveScanStats stats;
  stats.total_rows = 100;
  stats.count_tt = 10;
  stats.count_ff = 90;
  EstimationInputs good;
  good.p = 0.1;
  good.l = 1.0;
  good.n = 5.0;
  EstimationInputs bad = good;
  bad.p = 1.0;
  EXPECT_FALSE(EstimateConjunctiveCount(stats, bad, good).ok());
  EXPECT_FALSE(EstimateConjunctiveCount(stats, good, bad).ok());
  ConjunctiveScanStats empty;
  EXPECT_FALSE(EstimateConjunctiveCount(empty, good, good).ok());
}

TEST(ConjunctiveEstimatorTest, UnbiasedOverPrivateInstances) {
  Table data = TwoAttrTable();
  Predicate cond_a = Predicate::Equals("dept", "EECS");
  Predicate cond_b = Predicate::In("campus", {Value("North"),
                                              Value("South")});
  ConjunctiveScanStats truth_stats = ReferenceQuadrants(data, cond_a, cond_b);
  double truth = static_cast<double>(truth_stats.count_tt);

  RunningMoments estimates;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    Rng rng(9100 + t);
    PrivateTable pt = *PrivateTable::Create(
        data, GrrParams::Uniform(0.25, 1.0), GrrOptions{}, rng);
    QueryResult r = *pt.CountConjunctive(cond_a, cond_b);
    estimates.Add(r.estimate);
  }
  double se = std::sqrt(estimates.SampleVariance() / trials);
  EXPECT_NEAR(estimates.Mean(), truth, std::max(4.0 * se, 2.0));
}

TEST(ConjunctiveEstimatorTest, BeatsDirectOnSkewedJoint) {
  Table data = TwoAttrTable();
  Predicate cond_a = Predicate::Equals("dept", "EECS");
  Predicate cond_b = Predicate::Equals("campus", "North");
  double truth = static_cast<double>(
      ReferenceQuadrants(data, cond_a, cond_b).count_tt);
  double pc_err = 0.0, direct_err = 0.0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    Rng rng(9200 + t);
    PrivateTable pt = *PrivateTable::Create(
        data, GrrParams::Uniform(0.35, 1.0), GrrOptions{}, rng);
    pc_err += std::abs(pt.CountConjunctive(cond_a, cond_b)->estimate -
                       truth);
    double nominal = static_cast<double>(
        ReferenceQuadrants(pt.relation(), cond_a, cond_b).count_tt);
    direct_err += std::abs(nominal - truth);
  }
  EXPECT_LT(pc_err, direct_err);
}

TEST(ConjunctiveEstimatorTest, WorksAfterCleaning) {
  // Merge two departments; the conjunctive estimate must use the
  // provenance-adjusted l for the merged predicate.
  Table data = TwoAttrTable();
  Rng rng(9301);
  PrivateTable pt = *PrivateTable::Create(
      data, GrrParams::Uniform(0.2, 1.0), GrrOptions{}, rng);
  ASSERT_TRUE(
      pt.Clean(FindReplace::Single("dept", Value("Chem"), Value("Bio")))
          .ok());
  Predicate cond_a = Predicate::Equals("dept", "Bio");
  Predicate cond_b = Predicate::Equals("campus", "North");
  QueryResult r = *pt.CountConjunctive(cond_a, cond_b);
  EXPECT_DOUBLE_EQ(r.l, 2.0);  // Bio + Chem on the dirty side.
  EXPECT_DOUBLE_EQ(r.n, 6.0);
}

TEST(GroupByEstimateTest, CoversCleanDomainAndSumsToS) {
  Table data = TwoAttrTable();
  Rng rng(9400);
  PrivateTable pt = *PrivateTable::Create(
      data, GrrParams::Uniform(0.2, 1.0), GrrOptions{}, rng);
  auto groups = *pt.GroupByCountEstimate("dept");
  EXPECT_EQ(groups.size(), 6u);
  double total = 0.0;
  for (const auto& [value, result] : groups) {
    total += result.estimate;
    EXPECT_TRUE(result.ci.Contains(result.estimate));
  }
  // Each group's corrected count sums to ~S (the corrections cancel:
  // sum of nominal counts is S and sum of tau_n corrections is p*S).
  EXPECT_NEAR(total, 900.0, 1e-6);
}

TEST(GroupByEstimateTest, MoreAccurateThanNominalOnAverage) {
  Table data = TwoAttrTable();
  auto truth = *GroupByCount(data, "dept");
  double pc_err = 0.0, direct_err = 0.0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    Rng rng(9500 + t);
    PrivateTable pt = *PrivateTable::Create(
        data, GrrParams::Uniform(0.3, 1.0), GrrOptions{}, rng);
    auto groups = *pt.GroupByCountEstimate("dept");
    auto nominal = *GroupByCount(pt.relation(), "dept");
    for (const auto& [value, result] : groups) {
      double tr = static_cast<double>(truth[value.ToString()]);
      pc_err += std::abs(result.estimate - tr);
      direct_err +=
          std::abs(static_cast<double>(nominal[value.ToString()]) - tr);
    }
  }
  EXPECT_LT(pc_err, direct_err);
}

TEST(GroupByEstimateTest, ReflectsCleaning) {
  Table data = TwoAttrTable();
  Rng rng(9600);
  PrivateTable pt = *PrivateTable::Create(
      data, GrrParams::Uniform(0.2, 1.0), GrrOptions{}, rng);
  ASSERT_TRUE(
      pt.Clean(FindReplace::Single("dept", Value("Hist"), Value("Bio")))
          .ok());
  auto groups = *pt.GroupByCountEstimate("dept");
  EXPECT_EQ(groups.size(), 5u);  // Hist merged away.
  for (const auto& [value, result] : groups) {
    if (value == Value("Bio")) {
      EXPECT_DOUBLE_EQ(result.l, 2.0);
    } else {
      EXPECT_DOUBLE_EQ(result.l, 1.0);
    }
  }
}

TEST(GroupByEstimateTest, RejectsNumericalAttribute) {
  Table data = TwoAttrTable();
  Rng rng(9700);
  PrivateTable pt = *PrivateTable::Create(
      data, GrrParams::Uniform(0.2, 1.0), GrrOptions{}, rng);
  EXPECT_FALSE(pt.GroupByCountEstimate("score").ok());
  EXPECT_FALSE(pt.GroupByCountEstimate("nope").ok());
}

}  // namespace
}  // namespace privateclean
