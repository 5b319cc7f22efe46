#include "core/estimators.h"

#include <gtest/gtest.h>

#include <cmath>

namespace privateclean {
namespace {

EstimationInputs Inputs(double p, double l, double n,
                        double confidence = 0.95) {
  EstimationInputs in;
  in.p = p;
  in.l = l;
  in.n = n;
  in.confidence = confidence;
  return in;
}

QueryScanStats Stats(size_t total, size_t matching, double sum_match = 0.0,
                     double sum_comp = 0.0, double mean = 0.0,
                     double var = 0.0) {
  QueryScanStats stats;
  stats.total_rows = total;
  stats.matching_rows = matching;
  stats.matching_sum = sum_match;
  stats.complement_sum = sum_comp;
  stats.numeric_mean = mean;
  stats.numeric_variance = var;
  // No NULL values: AVG's count side counts every row.
  stats.total_non_null = total;
  stats.matching_non_null = matching;
  return stats;
}

TEST(CountEstimatorTest, PaperExample4) {
  // p=0.25, N=25, l=10, S=500, private count 300 -> 333.33.
  QueryResult r = *EstimateCount(Stats(500, 300), Inputs(0.25, 10.0, 25.0));
  EXPECT_NEAR(r.estimate, 333.3333, 0.001);
  EXPECT_DOUBLE_EQ(r.nominal, 300.0);
  EXPECT_EQ(r.estimator, EstimatorKind::kPrivateClean);
}

TEST(CountEstimatorTest, Equation3ClosedForm) {
  // c_hat = (c_p - S*tau_n) / (1-p), tau_n = p*l/N.
  double p = 0.1, l = 5.0, n = 50.0;
  size_t s = 1000, c_p = 120;
  QueryResult r = *EstimateCount(Stats(s, c_p), Inputs(p, l, n));
  double tau_n = p * l / n;
  double expected = (c_p - s * tau_n) / (1.0 - p);
  EXPECT_NEAR(r.estimate, expected, 1e-9);
}

TEST(CountEstimatorTest, NoPrivacyIsIdentity) {
  QueryResult r = *EstimateCount(Stats(1000, 200), Inputs(0.0, 5.0, 50.0));
  EXPECT_DOUBLE_EQ(r.estimate, 200.0);
}

TEST(CountEstimatorTest, ZeroSelectivityPredicate) {
  // l = 0: tau_n = 0, estimate = c_p/(1-p).
  QueryResult r = *EstimateCount(Stats(1000, 30), Inputs(0.25, 0.0, 50.0));
  EXPECT_NEAR(r.estimate, 40.0, 1e-9);
}

TEST(CountEstimatorTest, CiContainsEstimateAndScalesWithConfidence) {
  QueryResult r95 =
      *EstimateCount(Stats(1000, 200), Inputs(0.2, 5.0, 50.0, 0.95));
  QueryResult r99 =
      *EstimateCount(Stats(1000, 200), Inputs(0.2, 5.0, 50.0, 0.99));
  EXPECT_TRUE(r95.ci.Contains(r95.estimate));
  EXPECT_GT(r99.ci.Width(), r95.ci.Width());
}

TEST(CountEstimatorTest, CiWidensWithPrivacy) {
  QueryResult lo = *EstimateCount(Stats(1000, 200), Inputs(0.1, 5.0, 50.0));
  QueryResult hi = *EstimateCount(Stats(1000, 200), Inputs(0.6, 5.0, 50.0));
  EXPECT_GT(hi.ci.Width(), lo.ci.Width());
}

TEST(CountEstimatorTest, NonDegenerateCiAtExtremeSelectivity) {
  // Observed selectivity exactly 0 or 1 used to produce a zero-width
  // interval (the plug-in binomial variance vanishes); the half-width
  // now floors s_p at half an observation, so residual uncertainty
  // survives.
  QueryResult none = *EstimateCount(Stats(1000, 0), Inputs(0.2, 5.0, 50.0));
  EXPECT_GT(none.ci.Width(), 0.0);
  EXPECT_TRUE(none.ci.Contains(none.estimate));
  QueryResult all =
      *EstimateCount(Stats(1000, 1000), Inputs(0.2, 5.0, 50.0));
  EXPECT_GT(all.ci.Width(), 0.0);
  EXPECT_TRUE(all.ci.Contains(all.estimate));
  // The clamp only engages at the extremes: an interior selectivity has
  // strictly more binomial variance, hence a wider interval.
  QueryResult mid = *EstimateCount(Stats(1000, 500), Inputs(0.2, 5.0, 50.0));
  EXPECT_GT(mid.ci.Width(), all.ci.Width());
}

TEST(CountEstimatorTest, DiagnosticsFilled) {
  QueryResult r = *EstimateCount(Stats(500, 300), Inputs(0.25, 10.0, 25.0));
  EXPECT_DOUBLE_EQ(r.p, 0.25);
  EXPECT_DOUBLE_EQ(r.l, 10.0);
  EXPECT_DOUBLE_EQ(r.n, 25.0);
  EXPECT_EQ(r.s, 500u);
}

TEST(CountEstimatorTest, RejectsInvalidInputs) {
  QueryScanStats stats = Stats(100, 10);
  EXPECT_FALSE(EstimateCount(stats, Inputs(1.0, 5.0, 50.0)).ok());
  EXPECT_FALSE(EstimateCount(stats, Inputs(-0.1, 5.0, 50.0)).ok());
  EXPECT_FALSE(EstimateCount(stats, Inputs(0.1, 60.0, 50.0)).ok());
  EXPECT_FALSE(EstimateCount(stats, Inputs(0.1, -1.0, 50.0)).ok());
  EXPECT_FALSE(EstimateCount(stats, Inputs(0.1, 5.0, 0.5)).ok());
  EXPECT_FALSE(EstimateCount(Stats(0, 0), Inputs(0.1, 5.0, 50.0)).ok());
  EstimationInputs bad_conf = Inputs(0.1, 5.0, 50.0, 1.0);
  EXPECT_FALSE(EstimateCount(stats, bad_conf).ok());
}

TEST(SumEstimatorTest, AppendixCClosedForm) {
  // c_true*mu_true = ((N - l p) h_p - l p h_p^c) / ((1-p) N).
  double p = 0.2, l = 4.0, n = 20.0;
  double h_p = 900.0, h_pc = 2100.0;
  QueryResult r =
      *EstimateSum(Stats(1000, 150, h_p, h_pc, 3.0, 1.0), Inputs(p, l, n));
  double expected =
      ((n - l * p) * h_p - l * p * h_pc) / ((1.0 - p) * n);
  EXPECT_NEAR(r.estimate, expected, 1e-9);
}

TEST(SumEstimatorTest, MatchesEquation5Form) {
  // ((1 - tau_n) h_p - tau_n h_p^c) / (tau_p - tau_n) must agree with the
  // Appendix C form.
  double p = 0.3, l = 7.0, n = 35.0;
  double tau_n = p * l / n;
  double h_p = 500.0, h_pc = 700.0;
  QueryResult r =
      *EstimateSum(Stats(800, 120, h_p, h_pc, 1.5, 4.0), Inputs(p, l, n));
  double eq5 = ((1.0 - tau_n) * h_p - tau_n * h_pc) / (1.0 - p);
  EXPECT_NEAR(r.estimate, eq5, 1e-9);
}

TEST(SumEstimatorTest, NoPrivacyIsIdentity) {
  QueryResult r = *EstimateSum(Stats(100, 20, 444.0, 555.0, 10.0, 5.0),
                               Inputs(0.0, 5.0, 50.0));
  EXPECT_DOUBLE_EQ(r.estimate, 444.0);
}

TEST(SumEstimatorTest, ZeroWeightComplementAddsNothing) {
  // At p = 0 the complement weighs τ_n = 0, so a complement sum of ±inf
  // or NaN must leave the estimate h_p (0·inf would make it NaN). AVG
  // divides that estimate by the count: 1000 / 250.
  const EstimationInputs in = Inputs(0.0, 1.0, 5.0);
  for (double complement : {INFINITY, -INFINITY, NAN}) {
    SCOPED_TRACE(complement);
    const QueryScanStats stats = Stats(1000, 250, 1000.0, complement);
    EXPECT_EQ(EstimateSum(stats, in)->estimate, 1000.0);
    EXPECT_EQ(EstimateAvg(stats, in)->estimate, 4.0);
  }
}

TEST(SumEstimatorTest, CiContainsEstimate) {
  QueryResult r = *EstimateSum(Stats(1000, 150, 900.0, 2100.0, 3.0, 1.0),
                               Inputs(0.2, 4.0, 20.0));
  EXPECT_TRUE(r.ci.Contains(r.estimate));
  EXPECT_GT(r.ci.Width(), 0.0);
}

TEST(AvgEstimatorTest, RatioOfSumAndCount) {
  QueryScanStats stats = Stats(1000, 250, 1000.0, 2000.0, 3.0, 1.0);
  EstimationInputs in = Inputs(0.1, 5.0, 50.0);
  QueryResult avg = *EstimateAvg(stats, in);
  QueryResult sum = *EstimateSum(stats, in);
  QueryResult count = *EstimateCount(stats, in);
  EXPECT_NEAR(avg.estimate, sum.estimate / count.estimate, 1e-12);
}

TEST(AvgEstimatorTest, CornerRatioInterval) {
  QueryScanStats stats = Stats(1000, 250, 1000.0, 2000.0, 3.0, 1.0);
  EstimationInputs in = Inputs(0.1, 5.0, 50.0);
  QueryResult avg = *EstimateAvg(stats, in);
  QueryResult sum = *EstimateSum(stats, in);
  QueryResult count = *EstimateCount(stats, in);
  EXPECT_NEAR(avg.ci.hi,
              std::max({sum.ci.hi / count.ci.lo, sum.ci.lo / count.ci.lo,
                        sum.ci.hi / count.ci.hi, sum.ci.lo / count.ci.hi}),
              1e-9);
  EXPECT_TRUE(avg.ci.Contains(avg.estimate));
}

TEST(AvgEstimatorTest, CountSideCountsOnlyNonNullValues) {
  // 1000 rows, 200 with a NULL value; 250 match, 50 of those NULL.
  QueryScanStats stats = Stats(1000, 250, 1000.0, 2000.0, 3.0, 1.0);
  stats.total_non_null = 800;
  stats.matching_non_null = 200;
  EstimationInputs in = Inputs(0.1, 5.0, 50.0);
  QueryResult avg = *EstimateAvg(stats, in);
  QueryResult sum = *EstimateSum(stats, in);
  QueryResult count = *EstimateCount(Stats(800, 200), in);
  EXPECT_EQ(avg.estimate, sum.estimate / count.estimate);
  EXPECT_EQ(avg.nominal, 1000.0 / 200.0);
  EXPECT_EQ(avg.s, 1000u);

  QueryScanStats all_null = Stats(1000, 250, 0.0, 0.0);
  all_null.total_non_null = 0;
  all_null.matching_non_null = 0;
  EXPECT_TRUE(EstimateAvg(all_null, in).status().IsFailedPrecondition());
}

TEST(AvgEstimatorTest, FailsWhenCountIntervalStraddlesZero) {
  // Tiny matching count with high privacy: the count CI includes zero.
  QueryScanStats stats = Stats(100, 2, 10.0, 500.0, 5.0, 2.0);
  EstimationInputs in = Inputs(0.5, 1.0, 50.0);
  auto r = EstimateAvg(stats, in);
  if (!r.ok()) {
    EXPECT_TRUE(r.status().IsFailedPrecondition());
  } else {
    // If it succeeded the interval must be sane.
    EXPECT_TRUE(r->ci.Contains(r->estimate));
  }
}

TEST(EstimationInputsTest, ValidateChecksAllFields) {
  EXPECT_TRUE(Inputs(0.1, 5.0, 50.0).Validate().ok());
  EXPECT_TRUE(Inputs(0.0, 0.0, 1.0).Validate().ok());
  EstimationInputs bad_b = Inputs(0.1, 5.0, 50.0);
  bad_b.b = -1.0;
  EXPECT_FALSE(bad_b.Validate().ok());
}

}  // namespace
}  // namespace privateclean
