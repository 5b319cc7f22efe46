#include "common/exact_sum.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "exact_sum_reference.h"

// ExactSum against an independent big-integer reference
// (exact_sum_reference.h): bit-identical rounding across the whole
// exponent range, cancellation, ties, overflow and the non-finite rules,
// and the same bits under any permutation and any split into partial
// sums merged in any order.

namespace privateclean {
namespace {

using testing_reference::ReferenceExactSum;

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

double FromBits(uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

std::string Hex(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(Bits(x)));
  return buf;
}

double Sum(const std::vector<double>& values) {
  ExactSum sum;
  for (double v : values) sum.Add(v);
  return sum.Round();
}

/// NaN compares by class (any NaN), everything else by bits — so +0 and
/// -0 differ.
void ExpectSameBits(double got, double want, const std::string& what) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << what << ": got " << Hex(got);
    return;
  }
  EXPECT_EQ(Bits(got), Bits(want))
      << what << ": got " << Hex(got) << " (" << got << "), want "
      << Hex(want) << " (" << want << ")";
}

void ExpectMatchesReference(const std::vector<double>& values,
                            const std::string& what) {
  ExpectSameBits(Sum(values), ReferenceExactSum(values), what);
}

/// A finite double with uniformly random bits: every sign, every
/// exponent including subnormals and zero.
double RandomFinite(Rng& rng) {
  for (;;) {
    const double x = FromBits(rng.Next());
    if (std::isfinite(x)) return x;
  }
}

/// A double within `spread` binades of 2^`center`, random sign.
double RandomNear(Rng& rng, int center, int spread) {
  const int e = center + static_cast<int>(rng.UniformInt(2 * spread + 1)) -
                spread;
  const double mantissa = 1.0 + rng.UniformReal();
  const double x = std::ldexp(mantissa, e);
  return rng.Bernoulli(0.5) ? -x : x;
}

TEST(ExactSumTest, EmptyAndZerosArePositiveZero) {
  ExpectSameBits(ExactSum().Round(), 0.0, "empty");
  ExpectSameBits(Sum({-0.0, -0.0}), 0.0, "negative zeros");
  ExpectSameBits(Sum({1.5, -1.5}), 0.0, "exact cancellation");
  ExpectSameBits(Sum({-0.0, 2.0}), 2.0, "-0 + 2");
}

TEST(ExactSumTest, SmallCases) {
  ExpectSameBits(Sum({1.0, 2.0, 3.5}), 6.5, "integers");
  ExpectSameBits(Sum({0.1, 0.2}), ReferenceExactSum({0.1, 0.2}), "0.1+0.2");
  // The exact sum of 0.1 and 0.2 rounds to 0.30000000000000004 like the
  // IEEE add (one rounding either way).
  ExpectSameBits(Sum({0.1, 0.2}), 0.1 + 0.2, "single add");
  ExpectSameBits(Sum({-3.25}), -3.25, "one negative");
}

TEST(ExactSumTest, CancellationIsExact) {
  ExpectSameBits(Sum({1e308, 1.0, -1e308}), 1.0, "1e308 + 1 - 1e308");
  ExpectSameBits(Sum({1.0, 1e100, 1.0, -1e100}), 2.0, "1 + 1e100 + 1 - 1e100");
  ExpectSameBits(Sum({DBL_MAX, DBL_MAX, -DBL_MAX}), DBL_MAX,
                 "no intermediate overflow");
  ExpectSameBits(Sum({5e-324, 1e300, -1e300}), 5e-324, "subnormal survives");
}

TEST(ExactSumTest, TiesRoundToEven) {
  const double half_ulp_of_one = std::ldexp(1.0, -53);
  const double tiny = std::ldexp(1.0, -1074);
  // 1 + 2^-53 is halfway between 1 and 1 + 2^-52: even is 1.
  ExpectSameBits(Sum({1.0, half_ulp_of_one}), 1.0, "tie to even below");
  // 1 + 2^-52 + 2^-53 is halfway with an odd lower neighbour: rounds up.
  ExpectSameBits(Sum({1.0 + std::ldexp(1.0, -52), half_ulp_of_one}),
                 1.0 + std::ldexp(1.0, -51), "tie to even above");
  // Anything past the halfway point rounds up, however far below.
  ExpectSameBits(Sum({1.0, half_ulp_of_one, tiny}),
                 1.0 + std::ldexp(1.0, -52), "sticky bit");
  ExpectSameBits(Sum({-1.0, -half_ulp_of_one}), -1.0, "negative tie");
  ExpectSameBits(Sum({-1.0, -half_ulp_of_one, -tiny}),
                 -(1.0 + std::ldexp(1.0, -52)), "negative sticky");
  // A tie carried across a binade: (2 - 2^-52) + 2^-53 rounds to 2.
  ExpectSameBits(Sum({2.0 - std::ldexp(1.0, -52), half_ulp_of_one}), 2.0,
                 "carry into exponent");
  for (const std::vector<double>& values :
       std::vector<std::vector<double>>{
           {1.0, half_ulp_of_one},
           {3.0, std::ldexp(1.0, -52)},
           {1e16, 1.0},
           {1e16, 1.0, tiny},
           {-1e16, -1.0, 2.0}}) {
    ExpectMatchesReference(values, "tie battery");
  }
}

TEST(ExactSumTest, OverflowRoundsToInfinity) {
  const double inf = std::numeric_limits<double>::infinity();
  ExpectSameBits(Sum({DBL_MAX, DBL_MAX}), inf, "2 * DBL_MAX");
  ExpectSameBits(Sum({-DBL_MAX, -DBL_MAX}), -inf, "-2 * DBL_MAX");
  // DBL_MAX + half an ulp (2^970) is a tie with an odd significand:
  // rounds up past DBL_MAX.
  ExpectSameBits(Sum({DBL_MAX, std::ldexp(1.0, 970)}), inf, "tie past max");
  ExpectSameBits(Sum({DBL_MAX, std::ldexp(1.0, 969)}), DBL_MAX,
                 "below the tie");
  ExpectMatchesReference({DBL_MAX, std::ldexp(1.0, 970)}, "tie past max");
  std::vector<double> many(5000, DBL_MAX);
  ExpectSameBits(Sum(many), inf, "5000 * DBL_MAX");
  ExpectMatchesReference(many, "5000 * DBL_MAX");
}

TEST(ExactSumTest, NonFiniteRules) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(Sum({1.0, nan, 2.0})));
  EXPECT_TRUE(std::isnan(Sum({inf, -inf})));
  EXPECT_TRUE(std::isnan(Sum({inf, nan})));
  EXPECT_TRUE(std::isnan(Sum({-nan, 1.0})));
  ExpectSameBits(Sum({inf, 1.0, -DBL_MAX}), inf, "one +inf");
  ExpectSameBits(Sum({-inf, DBL_MAX, DBL_MAX}), -inf, "one -inf");
  ExpectSameBits(Sum({inf, inf}), inf, "two +inf");
  // The same meaning an IEEE running sum gives.
  for (const std::vector<double>& values : std::vector<std::vector<double>>{
           {inf, 1.0}, {-inf, 1.0}, {inf, -inf}, {nan}, {inf, inf, 3.0}}) {
    double running = 0.0;
    for (double v : values) running += v;
    ExpectSameBits(Sum(values), running, "running-sum meaning");
    ExpectMatchesReference(values, "non-finite reference");
  }
}

TEST(ExactSumTest, MatchesReferenceAcrossTheWholeExponentRange) {
  Rng rng(20240601);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> values;
    const size_t n = 1 + rng.UniformInt(trial < 100 ? 8 : 200);
    for (size_t i = 0; i < n; ++i) values.push_back(RandomFinite(rng));
    ExpectMatchesReference(values, "uniform bits, trial " +
                                       std::to_string(trial));
  }
}

TEST(ExactSumTest, MatchesReferenceUnderHeavyCancellation) {
  // Values clustered in a few binades with random signs, so the exact
  // sum is far below the addends and every digit matters.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const int center = static_cast<int>(rng.UniformInt(2000)) - 1060;
    std::vector<double> values;
    const size_t n = 2 + rng.UniformInt(300);
    for (size_t i = 0; i < n; ++i) {
      values.push_back(RandomNear(rng, center, 3));
      if (rng.Bernoulli(0.3)) values.push_back(-values.back());
    }
    ExpectMatchesReference(values,
                           "clustered at 2^" + std::to_string(center));
  }
  // Subnormals only, and subnormals around the normal boundary.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> values;
    for (int i = 0; i < 40; ++i) {
      const uint64_t bits = rng.UniformInt(uint64_t{1} << 53) |
                            (rng.Bernoulli(0.5) ? uint64_t{1} << 63 : 0);
      values.push_back(FromBits(bits));
    }
    ExpectMatchesReference(values, "subnormal boundary");
  }
}

TEST(ExactSumTest, CarriesKeepLargeCountsExact) {
  // Thousands of terms per chunk force many carry rounds, at the
  // largest significands and at a shift that puts 52 bits in the high
  // chunk.
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(std::ldexp(1.0, 1000));
  ExpectSameBits(Sum(values), 5000.0 * std::ldexp(1.0, 1000), "5000 * 2^1000");
  values.clear();
  Rng rng(5);
  for (int i = 0; i < 6000; ++i) {
    const double x = std::ldexp(2.0 - std::ldexp(1.0, -52), 31);  // biased exponent 1055
    values.push_back(rng.Bernoulli(0.5) ? x : -x);
    values.push_back(RandomNear(rng, 40, 20));
  }
  ExpectMatchesReference(values, "mixed carries");
}

TEST(ExactSumTest, SameBitsUnderPermutationAndSplitMerge) {
  Rng rng(31337);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<double> values;
    const size_t n = 1 + rng.UniformInt(3000);
    const bool clustered = trial % 2 == 0;
    for (size_t i = 0; i < n; ++i) {
      values.push_back(clustered ? RandomNear(rng, 16, 30)
                                 : RandomFinite(rng));
    }
    const double want = ReferenceExactSum(values);
    ExpectSameBits(Sum(values), want, "in order");
    std::vector<double> shuffled = values;
    rng.Shuffle(shuffled);
    ExpectSameBits(Sum(shuffled), want, "shuffled");

    // Random split into parts, merged in a random order, some of them
    // added as (part + extra) - extra.
    const size_t parts = 1 + rng.UniformInt(9);
    std::vector<ExactSum> partials(parts);
    for (double v : shuffled) partials[rng.UniformInt(parts)].Add(v);
    std::vector<size_t> order(parts);
    for (size_t i = 0; i < parts; ++i) order[i] = i;
    rng.Shuffle(order);
    ExactSum merged;
    for (size_t i : order) {
      if (rng.Bernoulli(0.3)) {
        ExactSum extra;
        extra.Add(RandomFinite(rng));
        ExactSum with_extra = partials[i];
        with_extra.Add(extra);
        merged.Add(with_extra);
        merged.Subtract(extra);
      } else {
        merged.Add(partials[i]);
      }
    }
    ExpectSameBits(merged.Round(), want, "split and merged");

    // Complement by subtraction: total - part == the rest.
    ExactSum total;
    for (double v : values) total.Add(v);
    const size_t cut = rng.UniformInt(values.size() + 1);
    ExactSum head;
    for (size_t i = 0; i < cut; ++i) head.Add(values[i]);
    total.Subtract(head);
    ExpectSameBits(total.Round(),
                   ReferenceExactSum(std::vector<double>(
                       values.begin() + static_cast<long>(cut),
                       values.end())),
                   "total - head");
  }
}

TEST(ExactSumTest, NonFiniteSurvivesMergeAndSubtract) {
  const double inf = std::numeric_limits<double>::infinity();
  ExactSum total;
  ExactSum matching;
  for (double v : {1.0, inf, 2.0, -inf, 3.0}) total.Add(v);
  matching.Add(1.0);
  matching.Add(-inf);
  EXPECT_TRUE(std::isnan(total.Round()));
  total.Subtract(matching);
  ExpectSameBits(total.Round(), inf, "complement keeps +inf only");
  ExpectSameBits(matching.Round(), -inf, "matching keeps -inf");
}

TEST(PackedExactSumsTest, EntriesMergeLikeTheSumsTheyPack) {
  Rng rng(8);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ExactSum> sums(300);
  for (size_t i = 0; i < sums.size(); ++i) {
    const size_t n = rng.UniformInt(50);
    for (size_t k = 0; k < n; ++k) {
      sums[i].Add(i % 3 == 0 ? RandomFinite(rng) : RandomNear(rng, 15, 4));
    }
    if (i % 97 == 5) sums[i].Add(i % 2 ? inf : -inf);
    if (i == 123) sums[i].Add(std::numeric_limits<double>::quiet_NaN());
  }
  PackedExactSums packed(sums);
  ASSERT_EQ(packed.size(), sums.size());
  for (int trial = 0; trial < 200; ++trial) {
    ExactSum from_packed;
    ExactSum from_sums;
    const size_t picks = rng.UniformInt(6);
    for (size_t k = 0; k < picks; ++k) {
      const size_t i = rng.UniformInt(sums.size());
      packed.AddTo(i, &from_packed);
      from_sums.Add(sums[i]);
    }
    ExpectSameBits(from_packed.Round(), from_sums.Round(),
                   "packed trial " + std::to_string(trial));
  }
  // Narrow sums keep a few digits each, not a whole accumulator.
  std::vector<ExactSum> narrow_sums(1000);
  for (ExactSum& s : narrow_sums) {
    for (int k = 0; k < 500; ++k) s.Add(RandomNear(rng, 15, 2));
  }
  PackedExactSums narrow(narrow_sums);
  EXPECT_LE(narrow.MemoryBytes(), 1000u * 32u);
  for (size_t i = 0; i < narrow_sums.size(); ++i) {
    ExactSum unpacked;
    narrow.AddTo(i, &unpacked);
    EXPECT_EQ(unpacked.count(), 500u);
    ExpectSameBits(unpacked.Round(), narrow_sums[i].Round(), "narrow");
  }
}

}  // namespace
}  // namespace privateclean
