#include "privacy/privacy_params.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace privateclean {
namespace {

TEST(RrEpsilonTest, Lemma1Formula) {
  // Lemma 1: eps = ln(3/p - 2).
  EXPECT_NEAR(*EpsilonForRandomizedResponse(0.25), std::log(10.0), 1e-12);
  EXPECT_NEAR(*EpsilonForRandomizedResponse(1.0), 0.0, 1e-12);
  EXPECT_NEAR(*EpsilonForRandomizedResponse(0.1), std::log(28.0), 1e-12);
}

TEST(RrEpsilonTest, MorePrivacyMeansSmallerEpsilon) {
  double prev = *EpsilonForRandomizedResponse(0.05);
  for (double p : {0.1, 0.2, 0.4, 0.8, 1.0}) {
    double eps = *EpsilonForRandomizedResponse(p);
    EXPECT_LT(eps, prev) << "p=" << p;
    prev = eps;
  }
}

TEST(RrEpsilonTest, RejectsOutOfRange) {
  EXPECT_FALSE(EpsilonForRandomizedResponse(0.0).ok());
  EXPECT_FALSE(EpsilonForRandomizedResponse(-0.1).ok());
  EXPECT_FALSE(EpsilonForRandomizedResponse(1.1).ok());
}

TEST(RrEpsilonTest, InverseRoundTrips) {
  for (double p : {0.05, 0.1, 0.25, 0.5, 0.9, 1.0}) {
    double eps = *EpsilonForRandomizedResponse(p);
    EXPECT_NEAR(*RandomizationForEpsilon(eps), p, 1e-12) << "p=" << p;
  }
}

TEST(RrEpsilonTest, InverseAtZeroEpsilonIsFullRandomization) {
  EXPECT_NEAR(*RandomizationForEpsilon(0.0), 1.0, 1e-12);
  EXPECT_FALSE(RandomizationForEpsilon(-1.0).ok());
}

TEST(LaplaceEpsilonTest, Proposition1Formula) {
  EXPECT_DOUBLE_EQ(*EpsilonForLaplace(100.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(*EpsilonForLaplace(5.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(*EpsilonForLaplace(0.0, 1.0), 0.0);
}

TEST(LaplaceEpsilonTest, RejectsBadInputs) {
  EXPECT_FALSE(EpsilonForLaplace(-1.0, 1.0).ok());
  EXPECT_FALSE(EpsilonForLaplace(1.0, 0.0).ok());
  EXPECT_FALSE(EpsilonForLaplace(1.0, -1.0).ok());
}

TEST(LaplaceEpsilonTest, ScaleInverseRoundTrips) {
  double b = *LaplaceScaleForEpsilon(100.0, 2.0);
  EXPECT_DOUBLE_EQ(b, 50.0);
  EXPECT_DOUBLE_EQ(*EpsilonForLaplace(100.0, b), 2.0);
  EXPECT_FALSE(LaplaceScaleForEpsilon(1.0, 0.0).ok());
  EXPECT_FALSE(LaplaceScaleForEpsilon(-1.0, 1.0).ok());
}

TEST(LaplaceEpsilonTest, NonFiniteSensitivityIsInvalidArgument) {
  // A NaN or infinite Δ would report a NaN or infinite ε.
  const double inf = std::numeric_limits<double>::infinity();
  for (double delta : {std::nan(""), inf}) {
    EXPECT_TRUE(
        LaplaceScaleForEpsilon(delta, 1.0).status().IsInvalidArgument())
        << delta;
    EXPECT_TRUE(EpsilonForLaplace(delta, 1.0).status().IsInvalidArgument())
        << delta;
  }
}

TEST(GrrParamsTest, UniformSetsDefaults) {
  GrrParams params = GrrParams::Uniform(0.1, 10.0);
  EXPECT_DOUBLE_EQ(params.default_p, 0.1);
  EXPECT_DOUBLE_EQ(params.default_b, 10.0);
  EXPECT_TRUE(params.discrete_p.empty());
  EXPECT_TRUE(params.numeric_b.empty());
}

TEST(GrrParamsTest, DefaultHasNoDefaults) {
  GrrParams params;
  EXPECT_LT(params.default_p, 0.0);
  EXPECT_LT(params.default_b, 0.0);
}

}  // namespace
}  // namespace privateclean
