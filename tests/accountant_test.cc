#include "privacy/accountant.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

PrivateRelationMetadata MakeMetadata(double p, double b, double delta) {
  PrivateRelationMetadata meta;
  meta.dataset_size = 100;
  meta.discrete.emplace(
      "d", DiscreteAttributeMeta{p, Domain::FromValues({Value("a")})});
  meta.numeric.emplace("x", NumericAttributeMeta{b, delta});
  return meta;
}

TEST(AccountantTest, Theorem1Composition) {
  PrivacyReport report = *AccountPrivacy(MakeMetadata(0.25, 10.0, 100.0));
  double eps_d = std::log(3.0 / 0.25 - 2.0);
  double eps_n = 100.0 / 10.0;
  EXPECT_NEAR(report.per_attribute_epsilon.at("d"), eps_d, 1e-12);
  EXPECT_NEAR(report.per_attribute_epsilon.at("x"), eps_n, 1e-12);
  EXPECT_NEAR(report.total_epsilon, eps_d + eps_n, 1e-12);
  EXPECT_TRUE(report.fully_private);
}

TEST(AccountantTest, NonRandomizedDiscreteIsInfinite) {
  PrivacyReport report = *AccountPrivacy(MakeMetadata(0.0, 10.0, 100.0));
  EXPECT_TRUE(std::isinf(report.per_attribute_epsilon.at("d")));
  EXPECT_TRUE(std::isinf(report.total_epsilon));
  EXPECT_FALSE(report.fully_private);
}

TEST(AccountantTest, ZeroNoiseNumericIsInfinite) {
  PrivacyReport report = *AccountPrivacy(MakeMetadata(0.25, 0.0, 100.0));
  EXPECT_TRUE(std::isinf(report.per_attribute_epsilon.at("x")));
  EXPECT_FALSE(report.fully_private);
}

TEST(AccountantTest, ZeroNoiseOnConstantColumnIsPrivate) {
  // Delta == 0: the attribute carries no information.
  PrivacyReport report = *AccountPrivacy(MakeMetadata(0.25, 0.0, 0.0));
  EXPECT_DOUBLE_EQ(report.per_attribute_epsilon.at("x"), 0.0);
  EXPECT_TRUE(report.fully_private);
}

TEST(AccountantTest, FullRandomizationIsZeroEpsilon) {
  PrivacyReport report = *AccountPrivacy(MakeMetadata(1.0, 10.0, 100.0));
  EXPECT_NEAR(report.per_attribute_epsilon.at("d"), 0.0, 1e-12);
}

TEST(AccountantTest, AddingAttributesIncreasesEpsilon) {
  // The Theorem 1 interpretation: more attributes, more epsilon.
  PrivateRelationMetadata one = MakeMetadata(0.25, 10.0, 100.0);
  PrivateRelationMetadata two = MakeMetadata(0.25, 10.0, 100.0);
  two.discrete.emplace(
      "d2", DiscreteAttributeMeta{0.25, Domain::FromValues({Value("b")})});
  EXPECT_GT(AccountPrivacy(two)->total_epsilon,
            AccountPrivacy(one)->total_epsilon);
}

TEST(AccountantTest, NegativeRetentionIsInfinite) {
  // p < 0 is nonsensical metadata; treat it like "never retained" (no
  // privacy guarantee) rather than passing it to the log formula.
  PrivacyReport report = *AccountPrivacy(MakeMetadata(-0.5, 10.0, 100.0));
  EXPECT_TRUE(std::isinf(report.per_attribute_epsilon.at("d")));
  EXPECT_FALSE(report.fully_private);
}

TEST(AccountantTest, NegativeNoiseScaleIsInfinite) {
  // b < 0 never arises from the mechanism; the conservative reading is
  // "no noise was added".
  PrivacyReport report = *AccountPrivacy(MakeMetadata(0.25, -3.0, 100.0));
  EXPECT_TRUE(std::isinf(report.per_attribute_epsilon.at("x")));
  EXPECT_FALSE(report.fully_private);
}

TEST(AccountantTest, PositiveNoiseOnConstantColumnIsZeroEpsilon) {
  // sensitivity == 0 with real noise: ε = Δ/b = 0, and the report stays
  // fully private.
  PrivacyReport report = *AccountPrivacy(MakeMetadata(0.25, 5.0, 0.0));
  EXPECT_DOUBLE_EQ(report.per_attribute_epsilon.at("x"), 0.0);
  EXPECT_TRUE(report.fully_private);
}

TEST(AccountantTest, EmptyMetadataIsZero) {
  PrivateRelationMetadata meta;
  PrivacyReport report = *AccountPrivacy(meta);
  EXPECT_DOUBLE_EQ(report.total_epsilon, 0.0);
  EXPECT_TRUE(report.fully_private);
  EXPECT_TRUE(report.per_attribute_epsilon.empty());
}

// --- Mechanism-aware accounting -------------------------------------------

PrivateRelationMetadata MetadataWithMechanism(MechanismFamily family,
                                              double param, size_t n) {
  std::vector<Value> values;
  for (size_t i = 0; i < n; ++i) {
    values.push_back(Value(static_cast<int64_t>(i)));
  }
  PrivateRelationMetadata meta;
  meta.dataset_size = 100;
  meta.discrete.emplace(
      "d", DiscreteAttributeMeta{param, Domain::FromValues(values)});
  meta.mechanism = family;
  return meta;
}

TEST(AccountantTest, HlmAttributeSpendsExactlyItsTarget) {
  PrivacyReport report = *AccountPrivacy(
      MetadataWithMechanism(MechanismFamily::kHlm, 1.3, 8));
  EXPECT_DOUBLE_EQ(report.per_attribute_epsilon.at("d"), 1.3);
  EXPECT_TRUE(report.fully_private);
}

TEST(AccountantTest, HlmSingleValueDomainIsZeroEpsilon) {
  // One domain value: the output is constant whatever the input, so the
  // attribute leaks nothing even at a generous target.
  PrivacyReport report = *AccountPrivacy(
      MetadataWithMechanism(MechanismFamily::kHlm, 5.0, 1));
  EXPECT_DOUBLE_EQ(report.per_attribute_epsilon.at("d"), 0.0);
  EXPECT_TRUE(report.fully_private);
}

TEST(AccountantTest, EmptyDomainIsTypedInvalidArgument) {
  // An infeasible (parameter, domain-size) combination surfaces as a
  // typed error, not a crash or a silent infinity.
  PrivateRelationMetadata meta =
      MetadataWithMechanism(MechanismFamily::kHlm, 1.0, 8);
  meta.discrete.at("d").domain = Domain::FromValues({});
  auto report = AccountPrivacy(meta);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument())
      << report.status().ToString();
}

// --- EpsilonFromConfusionMatrix (general, non-diagonal-constant) ----------

TEST(AccountantTest, EpsilonFromNonSymmetricConfusionMatrix) {
  // Worst-case log-likelihood ratio over output columns:
  // column 0 gives ln(0.7/0.1), column 1 gives ln(0.9/0.3); ε = ln 7.
  std::vector<std::vector<double>> m = {{0.7, 0.3}, {0.1, 0.9}};
  EXPECT_NEAR(*EpsilonFromConfusionMatrix(m), std::log(7.0), 1e-12);
}

TEST(AccountantTest, EpsilonFromConfusionMatrixSkipsImpossibleOutputs) {
  // The middle output never occurs under any input: it constrains
  // nothing, so ε comes from the remaining columns (ln 3).
  std::vector<std::vector<double>> m = {
      {0.5, 0.0, 0.5}, {0.2, 0.0, 0.8}, {0.6, 0.0, 0.4}};
  EXPECT_NEAR(*EpsilonFromConfusionMatrix(m), std::log(3.0), 1e-12);
}

TEST(AccountantTest, EpsilonFromConfusionMatrixTypedErrors) {
  // Non-square.
  EXPECT_TRUE(EpsilonFromConfusionMatrix({{0.5, 0.5}})
                  .status()
                  .IsInvalidArgument());
  // Empty.
  EXPECT_TRUE(EpsilonFromConfusionMatrix({}).status().IsInvalidArgument());
  // Row does not sum to 1.
  EXPECT_TRUE(EpsilonFromConfusionMatrix({{0.9, 0.2}, {0.5, 0.5}})
                  .status()
                  .IsInvalidArgument());
  // Negative entry.
  EXPECT_TRUE(EpsilonFromConfusionMatrix({{1.2, -0.2}, {0.5, 0.5}})
                  .status()
                  .IsInvalidArgument());
  // A column mixing zero and non-zero entries: observing that output
  // identifies the input — no finite ε exists, and that is a property of
  // the mechanism (FailedPrecondition), not of the matrix encoding.
  auto mixed = EpsilonFromConfusionMatrix({{1.0, 0.0}, {0.5, 0.5}});
  ASSERT_FALSE(mixed.ok());
  EXPECT_TRUE(mixed.status().IsFailedPrecondition())
      << mixed.status().ToString();
}

}  // namespace
}  // namespace privateclean
