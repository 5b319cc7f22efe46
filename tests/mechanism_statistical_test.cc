// Statistical acceptance suite for the mechanism families (`ctest -L
// statistical`): empirical confusion matrices of the randomized-response
// kernel at each family's p_eff against the analytic matrices
// (chi-squared), Monte-Carlo unbiasedness and variance of the count
// estimator under every family, the arXiv 2112.07397 utility-bound
// identities, and a Kolmogorov–Smirnov check of the Laplace numeric
// kernel that every family uses.
//
// Every test draws from a fixed seed, so each run is deterministic: a
// threshold either always passes or always fails for a given build. The
// thresholds are still sized as if the seeds were redrawn, so a passing
// seed is overwhelmingly likely to stay passing across benign numeric
// changes:
//   - chi-squared acceptance at the 0.999 quantile  -> ~0.1% per statistic
//   - unbiasedness within 4 sigma of the trial mean -> ~0.006% per check
//   - empirical/analytic variance ratio in [0.6, 1.6] with 200 trials
//   - KS acceptance at alpha = 0.001 (1.949/sqrt(n))
// A fresh-seed run of the whole file has a false-positive rate well under
// 1%; with the checked-in seeds it has zero flake by construction.

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/statistics.h"
#include "core/estimators.h"
#include "privacy/laplace_mechanism.h"
#include "privacy/mechanism.h"
#include "privacy/privacy_params.h"
#include "privacy/randomized_response.h"
#include "query/aggregate.h"
#include "table/column.h"
#include "table/domain.h"

namespace privateclean {
namespace {

struct NamedMechanism {
  std::string label;
  MechanismFamily family;
  double param;

  double ReplacementProbability(size_t n) const {
    return *privateclean::ReplacementProbability(family, param, n);
  }
};

// One representative configuration per family, moderate privacy so both
// kept and replaced rows are plentiful.
std::vector<NamedMechanism> FamilyConfigurations() {
  return {
      {"grr(p=0.4)", MechanismFamily::kGrr, 0.4},
      {"hlm(eps=1.2)", MechanismFamily::kHlm, 1.2},
  };
}

// The n x n matrix of uniform replacement at p_eff, row-major:
// diagonal (1 - p) + p/n, off-diagonal p/n.
std::vector<std::vector<double>> Confusion(double p, size_t n) {
  const double off = p / static_cast<double>(n);
  std::vector<std::vector<double>> m(n, std::vector<double>(n, off));
  for (size_t i = 0; i < n; ++i) m[i][i] = (1.0 - p) + off;
  return m;
}

Domain IntDomain(size_t n) {
  std::vector<Value> values;
  for (size_t i = 0; i < n; ++i) {
    values.push_back(Value(static_cast<int64_t>(i)));
  }
  return Domain::FromValues(values);
}

// Perturbs a copy of `input` with the kernel at the configuration's
// p_eff and a fresh Rng(seed).
Column Perturb(const NamedMechanism& config, const Column& input,
               const Domain& domain, uint64_t seed) {
  Column column = input;
  Rng rng(seed);
  Status s = ApplyRandomizedResponse(
      &column, domain, config.ReplacementProbability(domain.size()), rng);
  EXPECT_TRUE(s.ok()) << s.message();
  return column;
}

// For every family and a couple of true values, randomize many copies of
// that value and chi-squared-test the empirical output histogram against
// the analytic confusion-matrix row.
TEST(MechanismStatisticalTest, EmpiricalConfusionMatrixMatchesAnalytic) {
  const size_t n = 5;
  const size_t rows = 40000;
  const Domain domain = IntDomain(n);
  const double threshold = *ChiSquaredQuantile(n - 1, 0.999);

  uint64_t seed = 1001;
  for (const NamedMechanism& config : FamilyConfigurations()) {
    const std::vector<std::vector<double>> confusion =
        Confusion(config.ReplacementProbability(n), n);
    for (size_t true_value : {size_t{0}, size_t{3}}) {
      Column input = *Column::Make(ValueType::kInt64);
      for (size_t r = 0; r < rows; ++r) {
        input.AppendInt64(static_cast<int64_t>(true_value));
      }
      Column output = Perturb(config, input, domain, seed++);

      std::vector<double> observed(n, 0.0);
      for (size_t r = 0; r < rows; ++r) {
        observed[static_cast<size_t>(output.ValueAt(r).AsInt64())] += 1.0;
      }
      std::vector<double> expected(n);
      for (size_t j = 0; j < n; ++j) {
        expected[j] = static_cast<double>(rows) * confusion[true_value][j];
      }
      double stat = *ChiSquaredStatistic(observed, expected);
      EXPECT_LT(stat, threshold)
          << config.label << " true value " << true_value;
    }
  }
}

// Monte Carlo over full randomize-then-estimate trials: the corrected
// COUNT estimate must be unbiased under every family (mean within 4
// sigma of the ground truth), and its empirical variance must track the
// analytic CLT variance
//   Var(c_hat) = [c tau_p(1-tau_p) + (S-c) tau_n(1-tau_n)] / (tau_p-tau_n)^2,
// whose 1/(tau_p - tau_n)^2 = 1/(d - q)^2 scale is the utility currency
// of arXiv 2112.07397.
TEST(MechanismStatisticalTest, CountEstimatorUnbiasedWithCltVariance) {
  const size_t n = 8;
  const size_t rows = 3000;
  const size_t trials = 200;
  const Domain domain = IntDomain(n);

  Column base = *Column::Make(ValueType::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    base.AppendInt64(static_cast<int64_t>(r % n));
  }
  const double truth = static_cast<double>(rows / n);  // count of value 0

  uint64_t seed = 20001;
  for (const NamedMechanism& config : FamilyConfigurations()) {
    EstimationInputs in;
    in.p = config.ReplacementProbability(n);
    in.l = 1.0;
    in.n = static_cast<double>(n);

    std::vector<double> estimates;
    estimates.reserve(trials);
    for (size_t t = 0; t < trials; ++t) {
      Column output = Perturb(config, base, domain, seed++);
      QueryScanStats stats;
      stats.total_rows = rows;
      for (size_t r = 0; r < rows; ++r) {
        if (output.ValueAt(r).AsInt64() == 0) ++stats.matching_rows;
      }
      estimates.push_back(EstimateCount(stats, in)->estimate);
    }

    const double mean = *Mean(estimates);
    const double variance = *SampleVariance(estimates);
    TransitionProbabilities tau = *ComputeTransitionProbabilities(in.p, 1.0, n);
    const double tp = tau.true_positive;
    const double fp = tau.false_positive;
    const double analytic_variance =
        (truth * tp * (1.0 - tp) + (rows - truth) * fp * (1.0 - fp)) /
        ((tp - fp) * (tp - fp));

    // 4-sigma band around the Monte-Carlo mean.
    const double band =
        4.0 * std::sqrt(analytic_variance / static_cast<double>(trials));
    EXPECT_NEAR(mean, truth, band) << config.label;
    // Sample variance of 200 trials concentrates within ~±35%; the
    // [0.6, 1.6] ratio window is ~4 sigma wide for chi-squared_{199}.
    EXPECT_GT(variance, 0.6 * analytic_variance) << config.label;
    EXPECT_LT(variance, 1.6 * analytic_variance) << config.label;
  }
}

// arXiv 2112.07397: an eps-LDP mechanism on an N-value domain satisfies
// d - q <= (e^eps - 1)/(e^eps + N - 1), where d and q are the diagonal
// and off-diagonal retention probabilities. Every diagonal-constant
// mechanism attains the bound with equality at its *exact* epsilon
// ln(d/q) — an identity every family must satisfy.
TEST(MechanismStatisticalTest, UtilityBoundAttainedWithEqualityAtExactEps) {
  for (const NamedMechanism& config : FamilyConfigurations()) {
    for (size_t n : {4u, 10u}) {
      const std::vector<std::vector<double>> c =
          Confusion(config.ReplacementProbability(n), n);
      const double exact_eps = *EpsilonFromConfusionMatrix(c);
      const double bound = std::expm1(exact_eps) /
                           (std::exp(exact_eps) + static_cast<double>(n) -
                            1.0);
      EXPECT_NEAR(c[0][0] - c[0][1], bound, 1e-10)
          << config.label << " n=" << n;
    }
  }
}

// Calibration cross-check: hlm realizes its target epsilon exactly at
// every domain size, while grr's paper inversion p = 3/(e^eps + 2) only
// lands on the target at N == 3 — it over-spends (exact eps above
// target) for N > 3 and under-spends for N == 2. This quantifies why the
// hlm family exists.
TEST(MechanismStatisticalTest, HlmCalibratesExactlyGrrPaperInversionDoesNot) {
  const double target = 1.0;

  for (size_t n : {2u, 3u, 8u, 32u}) {
    const double p_eff =
        *ReplacementProbability(MechanismFamily::kHlm, target, n);
    EXPECT_NEAR(*EpsilonFromConfusionMatrix(Confusion(p_eff, n)), target,
                1e-9)
        << "hlm n=" << n;
  }

  const double p = *ParamForEpsilon(MechanismFamily::kGrr, target);
  auto exact_eps = [&](size_t n) {
    return *EpsilonFromConfusionMatrix(Confusion(
        *ReplacementProbability(MechanismFamily::kGrr, p, n), n));
  };
  EXPECT_NEAR(exact_eps(3), target, 1e-9);
  EXPECT_GT(exact_eps(8), target + 0.1);
  EXPECT_GT(exact_eps(32), exact_eps(8));
  EXPECT_LT(exact_eps(2), target - 0.1);
}

// Every family noises numeric columns with the one Laplace kernel, so a
// single Kolmogorov–Smirnov check covers them all: noise from
// ApplyLaplaceMechanismShard must be Laplace(0, b).
TEST(MechanismStatisticalTest, NumericNoiseIsLaplaceUnderEveryFamily) {
  const size_t rows = 5000;
  const double b = 2.0;
  auto laplace_cdf = [b](double x) {
    return x < 0.0 ? 0.5 * std::exp(x / b) : 1.0 - 0.5 * std::exp(-x / b);
  };
  // Asymptotic KS critical value at alpha = 0.001.
  const double critical = 1.949 / std::sqrt(static_cast<double>(rows));

  Column column = *Column::Make(ValueType::kDouble);
  for (size_t r = 0; r < rows; ++r) column.AppendDouble(0.0);
  Rng rng(30001);
  ASSERT_TRUE(
      ApplyLaplaceMechanismShard(&column, b, rng, 0, column.size()).ok());
  std::vector<double> samples;
  samples.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    samples.push_back(column.ValueAt(r).AsDouble());
  }
  double ks = *KolmogorovSmirnovStatistic(std::move(samples), laplace_cdf);
  EXPECT_LT(ks, critical);
}

}  // namespace
}  // namespace privateclean
