// Seeded inputs of the benchmark: the relation, open_query's plan and
// the served workloads' schedules. Everything derives from Mix(), so one
// seed gives byte-identical inputs on every run and at every commit.

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace pcbench {
namespace {

constexpr size_t kCities = 50;
constexpr size_t kStates = 20;
constexpr size_t kZips = 2000;
// zip's Zipf exponent. 1M rows still hold ~1997 distinct zips, and the
// 10k-row relation ~490. With an exponent of 1 the 10k-row relation held
// ~1460, mostly single rows, and GRR redrew the zip column 7 to 222 times
// (depending on the seed) before every value survived, which made
// serve_churn's set-up time a seeded geometric draw.
constexpr double kZipExponent = 1.5;

// Stream tags: each use of Mix() draws from its own stream.
enum : uint64_t {
  kTagRelation = 1,
  kTagQuery,
  kTagMerge,
  kTagScanOrder,
  kTagUnfunded,
  kTagTenant,
  kTagFreeSlot,
  kTagCharged,
};

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits.
double Unit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Inverse-CDF sampler over ranks 0..n-1 with P(k) ∝ 1/(k+1)^z.
class Zipf {
 public:
  Zipf(size_t n, double z) : cdf_(n) {
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), z);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Sample(double u) const {
    const size_t k = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(k, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

void AppendUint(std::string& out, uint64_t v) {
  char digits[20];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) out.push_back(digits[--n]);
}

std::string Literal(char prefix, uint64_t k) {
  std::string s(1, prefix);
  AppendUint(s, k);
  return s;
}

// Literal choices per class in serve_scan's pool. The variants of a
// class scan the same rows, so the count sets only how many reference
// answers set-up renders; it does not weight the mix.
constexpr size_t kScanVariants = 8;

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t state = seed;
  state = SplitMix64(state) ^ a;
  state = SplitMix64(state) ^ b;
  return SplitMix64(state);
}

std::string GenerateRelationCsv(size_t rows, uint64_t seed) {
  const Zipf city(kCities, 1.0);
  const Zipf zip(kZips, kZipExponent);
  std::string out = "city,state,zip,income\n";
  out.reserve(out.size() + rows * 28);
  uint64_t state = Mix(seed, kTagRelation);
  for (size_t i = 0; i < rows; ++i) {
    out.push_back('c');
    AppendUint(out, city.Sample(Unit(SplitMix64(state))));
    out += ",s";
    AppendUint(out, SplitMix64(state) % kStates);
    out += ",z";
    AppendUint(out, zip.Sample(Unit(SplitMix64(state))));
    // Log-normal income with a median near 40k (Box-Muller), in cents.
    const double u1 = Unit(SplitMix64(state));
    const double u2 = Unit(SplitMix64(state));
    const double g = std::sqrt(-2.0 * std::log1p(-u1)) *
                     std::cos(2.0 * std::numbers::pi * u2);
    const uint64_t cents =
        static_cast<uint64_t>(std::llround(std::exp(10.6 + 0.5 * g) * 100.0));
    out.push_back(',');
    AppendUint(out, cents / 100);
    out.push_back('.');
    out.push_back(static_cast<char>('0' + cents / 10 % 10));
    out.push_back(static_cast<char>('0' + cents % 10));
    out.push_back('\n');
  }
  return out;
}

const char* QueryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kCount:
      return "count";
    case QueryClass::kSum:
      return "sum";
    case QueryClass::kAvg:
      return "avg";
    case QueryClass::kGroupBy:
      return "group_by";
    case QueryClass::kConjunctive:
      return "conjunctive";
    case QueryClass::kDirect:
      return "direct";
    case QueryClass::kCountAll:
      return "count_all";
  }
  return "unknown";
}

BenchQuery MakeQuery(QueryClass cls, uint64_t seed, uint64_t variant) {
  const uint64_t h =
      Mix(Mix(seed, kTagQuery, static_cast<uint64_t>(cls)), variant);
  const std::string city = Literal('c', h % kCities);
  const std::string state = Literal('s', (h >> 20) % kStates);
  // The ten most frequent zips (each >= 1.2% of the rows): a corrected
  // AVG over a rare zip has no defined interval on small relations.
  const std::string zip = Literal('z', (h >> 40) % 10);
  BenchQuery q;
  q.cls = cls;
  switch (cls) {
    case QueryClass::kCount:
      q.sql = "SELECT count(1) FROM r WHERE city = '" + city + "'";
      break;
    case QueryClass::kSum:
      q.sql = "SELECT sum(income) FROM r WHERE state = '" + state + "'";
      break;
    case QueryClass::kAvg:
      q.sql = "SELECT avg(income) FROM r WHERE zip = '" + zip + "'";
      break;
    case QueryClass::kGroupBy: {
      static const char* const kGroupAttributes[] = {"zip", "city", "state"};
      q.sql = std::string("SELECT count(1) FROM r GROUP BY ") +
              kGroupAttributes[variant % 3] +
              " ORDER BY count(1) DESC LIMIT 10";
      break;
    }
    case QueryClass::kConjunctive:
      q.sql = "SELECT count(1) FROM r WHERE city = '" + city +
              "' AND state = '" + state + "'";
      break;
    case QueryClass::kDirect:
      // One income range for every variant: this path's cost grows with
      // the rows the range selects, which must not vary by seed.
      q.sql = "SELECT count(1) FROM r WHERE income >= 20000 AND "
              "income < 60000 AND state = '" + state + "'";
      q.direct = true;
      break;
    case QueryClass::kCountAll:
      q.sql = "SELECT count(1) FROM r";
      break;
  }
  return q;
}

OpenQueryPlan MakeOpenQueryPlan(uint64_t seed) {
  OpenQueryPlan plan;
  const uint64_t to = Mix(seed, kTagMerge) % kCities;
  const uint64_t from = (to + 1 + Mix(seed, kTagMerge, 1) % (kCities - 1)) %
                        kCities;
  plan.merge_to = Literal('c', to);
  plan.merge_from = Literal('c', from);
  for (int c = 0; c < kNumQueryClasses; ++c) {
    plan.queries.push_back(MakeQuery(static_cast<QueryClass>(c), seed, 0));
  }
  // The corrected COUNT reads the value the clean merged into, so its
  // selectivity goes through the provenance graph.
  plan.queries[0].sql =
      "SELECT count(1) FROM r WHERE city = '" + plan.merge_to + "'";
  return plan;
}

ScanSchedule::ScanSchedule(uint64_t seed)
    : order_seed_(Mix(seed, kTagScanOrder)) {
  for (int c = 0; c < kNumQueryClasses; ++c) {
    const auto cls = static_cast<QueryClass>(c);
    offset_[c] = pool_.size();
    variants_[c] = cls == QueryClass::kCountAll ? 1 : kScanVariants;
    for (size_t v = 0; v < variants_[c]; ++v) {
      pool_.push_back(MakeQuery(cls, seed, v));
    }
  }
}

size_t ScanSchedule::At(uint64_t i) const {
  // A seeded Fisher-Yates order of the classes within each block; block
  // b asks variant b mod the class's variant count.
  const uint64_t block = i / kBlock;
  size_t order[kBlock];
  for (size_t k = 0; k < kBlock; ++k) order[k] = k;
  for (size_t k = kBlock - 1; k > 0; --k) {
    std::swap(order[k], order[Mix(order_seed_, block, k) % (k + 1)]);
  }
  const size_t c = order[i % kBlock];
  return offset_[c] + block % variants_[c];
}

ChurnSchedule::ChurnSchedule(uint64_t seed) : seed_(seed) {
  pool_.push_back(
      BenchQuery{QueryClass::kCountAll, "SELECT count(1) FROM r", false});
  for (size_t k = 0; k < kCities; ++k) {
    pool_.push_back(BenchQuery{
        QueryClass::kCount,
        "SELECT count(1) FROM r WHERE city = '" + Literal('c', k) + "'",
        false});
  }
  for (size_t k = 0; k < kStates; ++k) {
    pool_.push_back(BenchQuery{
        QueryClass::kCount,
        "SELECT count(1) FROM r WHERE state = '" + Literal('s', k) + "'",
        false});
  }
}

ChurnSession ChurnSchedule::Session(uint64_t s) const {
  ChurnSession session;
  session.unfunded = s % 8 == Mix(seed_, kTagUnfunded, s / 8) % 8;
  session.tenant = session.unfunded
                       ? std::string(kUnfundedTenant)
                       : FundedTenant(static_cast<int>(
                             Mix(seed_, kTagTenant, s) % kFundedTenants));
  const uint64_t free_slot = Mix(seed_, kTagFreeSlot, s) % 4;
  for (uint64_t j = 0; j < 4; ++j) {
    if (j == free_slot) {
      session.queries.push_back(0);
      continue;
    }
    const uint64_t h = Mix(Mix(seed_, kTagCharged, j), s);
    session.queries.push_back(h % 2 == 0 ? 1 + (h >> 1) % kCities
                                         : 1 + kCities + (h >> 1) % kStates);
  }
  return session;
}

}  // namespace pcbench
