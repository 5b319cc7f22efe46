// Unit tests for the mechanism families (privacy/mechanism.h): family
// names and their typed-error taxonomy, parameter feasibility, the
// closed-form p_eff / ε / param math per family — and the draw-sequence
// tests that pin the one randomized-response kernel: a manual replay of
// its documented draws predicts every output value on the boxed and the
// dictionary path, at grr's p and at hlm's calibrated p_eff, and hlm
// releases stay bit-identical across thread counts.

#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/synthetic.h"
#include "privacy/grr.h"
#include "privacy/mechanism.h"
#include "privacy/privacy_params.h"
#include "privacy/randomized_response.h"
#include "table/column.h"
#include "table/domain.h"

namespace privateclean {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr MechanismFamily kGrr = MechanismFamily::kGrr;
constexpr MechanismFamily kHlm = MechanismFamily::kHlm;

Domain IntDomain(size_t n) {
  std::vector<Value> values;
  for (size_t i = 0; i < n; ++i) {
    values.push_back(Value(static_cast<int64_t>(i)));
  }
  return Domain::FromValues(values);
}

Column IntColumn(size_t rows, size_t n) {
  Column column = *Column::Make(ValueType::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    column.AppendInt64(static_cast<int64_t>(r % n));
  }
  return column;
}

Column StringColumn(size_t rows, const std::vector<Value>& values) {
  Column column = *Column::Make(ValueType::kString);
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(column.AppendValue(values[r % values.size()]).ok());
  }
  return column;
}

// Randomizes a copy of `input` with the whole-column kernel at `p` and a
// fresh Rng(seed).
Column Perturb(double p, const Column& input, const Domain& domain,
               uint64_t seed) {
  Column column = input;
  Rng rng(seed);
  Status s = ApplyRandomizedResponse(&column, domain, p, rng);
  EXPECT_TRUE(s.ok()) << s.message();
  return column;
}

// Replays the documented draw sequence — one Bernoulli(p) per row, one
// UniformInt(n) only on replacement — and checks it predicts every value
// of `output`.
void ExpectReplayMatches(const Column& input, const Column& output,
                         const Domain& domain, double p, uint64_t seed) {
  ASSERT_EQ(output.size(), input.size());
  Rng replay(seed);
  for (size_t r = 0; r < input.size(); ++r) {
    Value expected = input.ValueAt(r);
    if (replay.Bernoulli(p)) {
      expected =
          domain.value(static_cast<size_t>(replay.UniformInt(domain.size())));
    }
    ASSERT_TRUE(output.ValueAt(r) == expected) << "row " << r;
  }
}

// --- Family names ---------------------------------------------------------

TEST(MechanismSpecTest, RegistryListsBothFamilies) {
  ASSERT_EQ(std::size(kMechanismFamilies), 2u);
  EXPECT_EQ(kMechanismFamilies[0], kGrr);
  EXPECT_EQ(kMechanismFamilies[1], kHlm);
  EXPECT_STREQ(MechanismName(kGrr), "grr");
  EXPECT_STREQ(MechanismName(kHlm), "hlm");
}

TEST(MechanismSpecTest, UnknownNameIsFailedPrecondition) {
  for (const char* stranger : {"rappor", "sampling"}) {
    auto parsed = ParseMechanismFamily(stranger);
    ASSERT_FALSE(parsed.ok()) << stranger;
    const Status& s = parsed.status();
    EXPECT_TRUE(s.IsFailedPrecondition()) << s.message();
    // The reader-side contract: the message names the stranger and what
    // this build does support.
    EXPECT_NE(s.message().find(stranger), std::string::npos) << s.message();
    EXPECT_NE(s.message().find("grr, hlm"), std::string::npos)
        << s.message();
  }
}

TEST(MechanismSpecTest, ParameterFeasibilityIsChecked) {
  for (double bad_p : {-0.1, 1.1, std::nan("")}) {
    auto r = ReplacementProbability(kGrr, bad_p, 10);
    ASSERT_FALSE(r.ok()) << "p=" << bad_p;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().message();
  }
  EXPECT_TRUE(ReplacementProbability(kGrr, 0.0, 10).ok());
  EXPECT_TRUE(ReplacementProbability(kGrr, 1.0, 10).ok());
  EXPECT_TRUE(DiscreteEpsilon(kGrr, 1.1, 10).status().IsInvalidArgument());

  for (double bad_eps : {-1.0, kInf, std::nan("")}) {
    EXPECT_TRUE(ReplacementProbability(kHlm, bad_eps, 10)
                    .status()
                    .IsInvalidArgument())
        << bad_eps;
    EXPECT_TRUE(DiscreteEpsilon(kHlm, bad_eps, 10).status().IsInvalidArgument())
        << bad_eps;
  }
  EXPECT_TRUE(ReplacementProbability(kHlm, 0.0, 10).ok());

  for (MechanismFamily family : kMechanismFamilies) {
    EXPECT_TRUE(ParamForEpsilon(family, -0.5).status().IsInvalidArgument())
        << MechanismName(family);
  }
}

TEST(MechanismSpecTest, RenderParseRoundTrip) {
  for (MechanismFamily family : kMechanismFamilies) {
    auto parsed = ParseMechanismFamily(MechanismName(family));
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(*parsed, family);
  }
}

TEST(MechanismSpecTest, ParseRejectsMalformedRenderings) {
  // A family is one bare name: no padding, no case folding, no
  // parameter block.
  for (const char* bad : {"", "   ", " grr", "grr ", "GRR", "grr beta=0.5",
                          "sampling beta=0.5"}) {
    auto parsed = ParseMechanismFamily(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_TRUE(parsed.status().IsFailedPrecondition())
        << parsed.status().message();
  }
}

// --- Closed-form math per family ------------------------------------------

TEST(MechanismMathTest, GrrReplacementProbabilityIsTheStoredP) {
  for (size_t n : {1u, 2u, 10u, 1000u}) {
    EXPECT_EQ(*ReplacementProbability(kGrr, 0.3, n), 0.3) << n;
  }
}

TEST(MechanismMathTest, HlmReplacementProbabilityMatchesOptimalMatrix) {
  for (double epsilon : {0.5, 1.0, 2.0}) {
    for (size_t n : {2u, 10u, 64u}) {
      const double nd = static_cast<double>(n);
      EXPECT_DOUBLE_EQ(*ReplacementProbability(kHlm, epsilon, n),
                       nd / (std::exp(epsilon) + nd - 1.0))
          << "eps=" << epsilon << " n=" << n;
    }
  }
  // More budget -> less randomization, at every domain size.
  EXPECT_GT(*ReplacementProbability(kHlm, 0.5, 10),
            *ReplacementProbability(kHlm, 3.0, 10));
}

TEST(MechanismMathTest, EmptyDomainIsInvalidForEveryFamily) {
  for (const auto& [family, param] :
       std::vector<std::pair<MechanismFamily, double>>{{kGrr, 0.3},
                                                       {kHlm, 1.0}}) {
    EXPECT_TRUE(ReplacementProbability(family, param, 0)
                    .status()
                    .IsInvalidArgument())
        << MechanismName(family);
    EXPECT_TRUE(
        DiscreteEpsilon(family, param, 0).status().IsInvalidArgument())
        << MechanismName(family);
  }
}

TEST(MechanismMathTest, ConfusionMatrixRowsAreStochastic) {
  // Uniform replacement at p_eff: diagonal (1 - p) + p/n, off-diagonal
  // p/n.
  for (const auto& [family, param] :
       std::vector<std::pair<MechanismFamily, double>>{{kGrr, 0.3},
                                                       {kHlm, 1.5}}) {
    for (size_t n : {2u, 7u}) {
      const double p = *ReplacementProbability(family, param, n);
      const double off = p / static_cast<double>(n);
      const double diagonal = (1.0 - p) + off;
      EXPECT_NEAR(diagonal + (n - 1) * off, 1.0, 1e-12)
          << MechanismName(family);
      EXPECT_GT(diagonal, off) << MechanismName(family);
    }
  }
}

TEST(MechanismMathTest, GrrEpsilonUsesThePaperFormula) {
  EXPECT_DOUBLE_EQ(*DiscreteEpsilon(kGrr, 0.5, 10), std::log(3.0 / 0.5 - 2.0));
  EXPECT_EQ(*DiscreteEpsilon(kGrr, 0.5, 10),
            *EpsilonForRandomizedResponse(0.5));
  // p == 0 keeps every value: no privacy.
  EXPECT_EQ(*DiscreteEpsilon(kGrr, 0.0, 10), kInf);
}

TEST(MechanismMathTest, HlmEpsilonIsTheTargetItCalibratesTo) {
  for (size_t n : {2u, 10u, 100u}) {
    EXPECT_DOUBLE_EQ(*DiscreteEpsilon(kHlm, 1.7, n), 1.7) << n;
  }
  // A single-value domain carries no information to leak.
  EXPECT_EQ(*DiscreteEpsilon(kHlm, 1.7, 1), 0.0);
}

TEST(MechanismMathTest, ParamForEpsilonInvertsDiscreteEpsilon) {
  // grr inverts Lemma 1, p = 3/(e^ε + 2), at every domain size; hlm's
  // param is the share itself.
  for (double epsilon : {0.25, 1.0, 3.0}) {
    const double p = *ParamForEpsilon(kGrr, epsilon);
    EXPECT_EQ(p, *RandomizationForEpsilon(epsilon)) << epsilon;
    EXPECT_EQ(*ParamForEpsilon(kHlm, epsilon), epsilon);
    for (size_t n : {2u, 50u}) {
      EXPECT_NEAR(*DiscreteEpsilon(kGrr, p, n), epsilon, 1e-12) << n;
      EXPECT_EQ(*DiscreteEpsilon(kHlm, epsilon, n), epsilon) << n;
    }
  }
}

// --- Draw-sequence tests --------------------------------------------------

// A manual replay of the documented draw sequence predicts every grr
// output value exactly, on the boxed int64 path and on the dictionary
// path of a string column. This pins the *sequence*, not just the
// distribution.
TEST(MechanismDrawSequenceTest, ManualReplayPredictsGrrOutput) {
  const size_t n = 10;
  const double p = 0.7;
  const Domain domain = IntDomain(n);
  const Column input = IntColumn(2000, n);
  ExpectReplayMatches(input, Perturb(p, input, domain, 777), domain, p, 777);

  const std::vector<Value> names = {"ann", "bob", "cid", "dee", "eve"};
  const Domain name_domain = Domain::FromValues(names);
  const Column strings = StringColumn(4000, names);
  ExpectReplayMatches(strings, Perturb(0.4, strings, name_domain, 99),
                      name_domain, 0.4, 99);
}

// hlm runs the same kernel at its calibrated p_eff: the replay computes
// p_eff = n/(e^eps + n - 1) itself and must predict every value.
TEST(MechanismDrawSequenceTest, ManualReplayPredictsHlmOutput) {
  const size_t n = 10;
  const double epsilon = 1.5;
  const Domain domain = IntDomain(n);
  const Column input = IntColumn(2000, n);
  const double p_eff = *ReplacementProbability(kHlm, epsilon, n);

  Column output = Perturb(p_eff, input, domain, 31337);

  ExpectReplayMatches(input, output, domain,
                      static_cast<double>(n) /
                          (std::exp(epsilon) + static_cast<double>(n) - 1.0),
                      31337);
}

// The p == 0 short-circuit consumes no RNG draws (it would shift every
// later stream otherwise).
TEST(MechanismDrawSequenceTest, GrrZeroPConsumesNoDraws) {
  const Domain domain = IntDomain(5);
  Column column = IntColumn(100, 5);
  Rng rng(55);
  const PreparedValues domain_values = *column.PrepareValues(domain.values());
  ASSERT_TRUE(ApplyRandomizedResponseShard(&column, domain_values, 0.0, rng, 0,
                                           column.size(), nullptr, nullptr)
                  .ok());
  Rng fresh(55);
  EXPECT_EQ(rng.Next(), fresh.Next());
}

// --- Thread-count determinism ---------------------------------------------

const Table& DeterminismTable() {
  static const Table* table = [] {
    SyntheticOptions options;
    options.num_rows = 2 * kRowsPerShard + 1234;
    options.num_distinct = 30;
    Rng rng(7);
    return new Table(*GenerateSynthetic(options, rng));
  }();
  return *table;
}

void ExpectSameTables(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.column(c).null_count(), b.column(c).null_count());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_TRUE(a.column(c).ValueAt(r) == b.column(c).ValueAt(r))
          << "column " << c << " row " << r;
    }
  }
}

GrrOutput RandomizeAtThreads(MechanismFamily mechanism, double param,
                             size_t num_threads) {
  GrrOptions options;
  options.mechanism = mechanism;
  options.exec.num_threads = num_threads;
  Rng rng(42);
  return *ApplyGrr(DeterminismTable(), GrrParams::Uniform(param, 5.0),
                   options, rng);
}

TEST(MechanismDeterminismTest, HlmIdenticalAcrossThreadCounts) {
  GrrOutput one = RandomizeAtThreads(kHlm, 1.5, 1);
  GrrOutput two = RandomizeAtThreads(kHlm, 1.5, 2);
  GrrOutput eight = RandomizeAtThreads(kHlm, 1.5, 8);
  ExpectSameTables(one.table, two.table);
  ExpectSameTables(one.table, eight.table);
}

}  // namespace
}  // namespace privateclean
