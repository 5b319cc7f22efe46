#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/privateclean.h"
#include "exact_sum_reference.h"
#include "parallel_harness.h"
#include "query/sql.h"

// Corrected SUM and AVG read h_p from the cached per-value exact sums of
// the clean values a predicate matches, and h_p^c as total − h_p. This
// suite checks them bit for bit against the estimators over the exact
// row scan (whose sums in turn equal an independent big-integer
// reference), on random tables with NULLs on both sides, row counts on
// both sides of kRowsPerShard, cleaners between queries, and 1, 2 and 8
// threads.

namespace privateclean {
namespace {

using testing_reference::ReferenceExactSum;

/// A random relation: two string attributes (one with NULLs and ''), a
/// double income with NULLs across a wide range of magnitudes, an int64
/// column with NULLs, and a discrete double `score` with NULLs (summable,
/// and cleanable by a ValueTransform).
Table RandomRelation(size_t rows, uint64_t seed) {
  TableBuilder b(*Schema::Make(
      {Field::Discrete("city"), Field::Discrete("state"),
       Field::Numerical("income", ValueType::kDouble),
       Field::Numerical("units", ValueType::kInt64),
       Field::Discrete("score", ValueType::kDouble)}));
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    Value city = rng.Bernoulli(0.08)   ? Value::Null()
                 : rng.Bernoulli(0.03) ? Value("")
                                       : Value("c" + std::to_string(
                                                         rng.UniformInt(15)));
    Value state("s" + std::to_string(rng.UniformInt(10)));
    Value income =
        rng.Bernoulli(1.0 / 13)
            ? Value::Null()
            : Value((rng.Bernoulli(0.1) ? -1.0 : 1.0) *
                    std::exp(rng.Gaussian(8.0, 3.0)));
    Value units = rng.Bernoulli(0.05)
                      ? Value::Null()
                      : Value(static_cast<int64_t>(rng.UniformInt(1000)) -
                              100);
    Value score = rng.Bernoulli(1.0 / 13)
                      ? Value::Null()
                      : Value(std::ldexp(
                            1.0 + static_cast<double>(rng.UniformInt(8)) / 7.0,
                            static_cast<int>(rng.UniformInt(12)) * 5 - 20));
    b.Row({city, state, income, units, score});
  }
  return *b.Finish();
}

PrivateTable RandomPrivateTable(size_t rows, uint64_t seed) {
  Rng grr_rng(seed + 1);
  return *PrivateTable::Create(RandomRelation(rows, seed),
                               GrrParams::Uniform(0.3, 1.0), GrrOptions{},
                               grr_rng);
}

Predicate Where(const std::string& condition) {
  return *ParseSql("SELECT count(1) FROM r WHERE " + condition)
              ->query.predicate;
}

std::vector<Predicate> Battery() {
  return {
      Predicate::Equals("city", Value("c3")),
      Predicate::Equals("city", Value("")),
      Predicate::Equals("city", Value("absent")),
      Predicate::In("city", {Value("c1"), Value::Null(), Value("c0")}),
      Predicate::IsNull("city"),
      Predicate::Equals("city", Value("c2")).Negate(),
      Predicate::Compare("city", CompareOp::kLt, Value("c5")),
      Where("city >= 'c1' AND NOT city = 'c3' OR city IS NULL"),
      Where("NOT (city IN ('c0', 'c9') OR city < 'c2')"),
      Where("city >= 'c10' AND city <= 'c13'"),
      Predicate::Equals("state", Value("s4")),
      Where("state IN ('s1', 's2', 's7')"),
      Where("NOT state >= 's5'"),
      // A double key keeps the exact scan.
      Where("score >= 4.0 AND score < 1e6"),
  };
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

void AppendResult(ByteSink* sink, const QueryResult& r) {
  for (double v : {r.estimate, r.ci.lo, r.ci.hi, r.nominal, r.p, r.l, r.n}) {
    sink->AppendDoubleBits(v);
  }
  sink->AppendU64(r.s);
}

/// The matching and complement sums of a predicate, by a boxed row loop
/// and the big-integer reference, equal the scan's.
void ExpectScanIsExact(const Table& relation, const std::vector<uint8_t>& mask,
                       const std::string& numeric,
                       const QueryScanStats& scan) {
  const Column& values = **relation.ColumnByName(numeric);
  std::vector<double> sums[2];
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    if (!values.IsNull(r)) sums[mask[r]].push_back(values.NumericAt(r));
  }
  EXPECT_EQ(Bits(scan.matching_sum), Bits(ReferenceExactSum(sums[1])))
      << "h_p " << scan.matching_sum;
  EXPECT_EQ(Bits(scan.complement_sum), Bits(ReferenceExactSum(sums[0])))
      << "h_p^c " << scan.complement_sum;
}

constexpr size_t kThreadCounts[] = {1, 2, 8};

/// Three copies of one table, one per entry of kThreadCounts: each
/// builds its caches at its own thread count.
struct TableCopies {
  std::vector<PrivateTable> tables;

  TableCopies(size_t rows, uint64_t seed) {
    for (size_t k = 0; k < std::size(kThreadCounts); ++k) {
      tables.push_back(RandomPrivateTable(rows, seed));
    }
  }

  static QueryOptions Options(size_t k) {
    QueryOptions options;
    options.exec.num_threads = kThreadCounts[k];
    return options;
  }

  /// Applies `cleaner` to every copy; all must agree on the outcome.
  bool Clean(const Cleaner& cleaner) {
    std::vector<bool> ok;
    for (PrivateTable& pt : tables) ok.push_back(pt.Clean(cleaner).ok());
    EXPECT_EQ(ok.front(), ok.back());
    return ok.front();
  }

  void Warm() {
    for (size_t k = 0; k < tables.size(); ++k) {
      ASSERT_TRUE(tables[k].WarmCaches(Options(k).exec).ok());
    }
  }
};

/// Every corrected Sum/Avg, from caches built at 1, 2 and 8 threads,
/// equals the estimator over the exact scan's stats, bit for bit.
void ExpectCachedEqualsScanned(const TableCopies& copies,
                               const std::string& stage) {
  const PrivateTable& reference = copies.tables.front();
  const std::vector<Predicate> battery = Battery();
  for (size_t i = 0; i < battery.size(); ++i) {
    const Predicate& pred = battery[i];
    const Column& key = **reference.relation().ColumnByName(pred.attribute());
    std::vector<uint8_t> mask(reference.relation().num_rows());
    for (size_t r = 0; r < mask.size(); ++r) {
      mask[r] = pred.Matches(key.ValueAt(r)) ? 1 : 0;
    }
    for (const char* numeric : {"income", "units", "score"}) {
      auto in = reference.InputsForPredicate(pred, numeric, QueryOptions());
      ASSERT_TRUE(in.ok()) << in.status().ToString();
      auto scan = ScanWithPredicate(reference.relation(), pred, numeric);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      ExpectScanIsExact(reference.relation(), mask, numeric, *scan);
      for (size_t k = 0; k < copies.tables.size(); ++k) {
        SCOPED_TRACE(stage + " threads=" + std::to_string(kThreadCounts[k]) +
                     " " + numeric + " predicate " + std::to_string(i));
        const PrivateTable& pt = copies.tables[k];
        const QueryOptions options = TableCopies::Options(k);
        const Result<QueryResult> cached[] = {pt.Sum(numeric, pred, options),
                                              pt.Avg(numeric, pred, options)};
        const Result<QueryResult> scanned[] = {EstimateSum(*scan, *in),
                                               EstimateAvg(*scan, *in)};
        for (int a = 0; a < 2; ++a) {
          SCOPED_TRACE(a == 0 ? "sum" : "avg");
          ASSERT_EQ(cached[a].ok(), scanned[a].ok())
              << cached[a].status().ToString() << " vs "
              << scanned[a].status().ToString();
          if (!cached[a].ok()) {
            EXPECT_EQ(cached[a].status().code(), scanned[a].status().code());
            continue;
          }
          ByteSink got;
          ByteSink want;
          AppendResult(&got, *cached[a]);
          AppendResult(&want, *scanned[a]);
          EXPECT_TRUE(std::move(got).Finish() == std::move(want).Finish())
              << "cached " << cached[a]->estimate << " vs scanned "
              << scanned[a]->estimate;
        }
      }
    }
  }
}

TEST(ValueSumsTest, CachedSumAndAvgEqualTheExactScanThroughCleaning) {
  for (size_t rows : {kRowsPerShard - 1, kRowsPerShard + 1, 2 * kRowsPerShard + 7}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    TableCopies copies(rows, rows);
    ExpectCachedEqualsScanned(copies, "fresh");

    ASSERT_TRUE(copies.Clean(FindReplace("city", {{Value("c1"), Value("c0")},
                                                  {Value("c4"), Value::Null()},
                                                  {Value::Null(), Value("filled")}})));
    ExpectCachedEqualsScanned(copies, "find-replace");

    ASSERT_TRUE(copies.Clean(DomainMerge("state",
                                         [](const Value& v, const Domain&) {
                                           if (v.is_null()) return v;
                                           return v.AsString() >= "s6"
                                                      ? Value("s0")
                                                      : v;
                                         })));
    ExpectCachedEqualsScanned(copies, "domain-merge");

    ASSERT_TRUE(copies.Clean(MergeToNull("city", [](const Value& v) {
      return !v.is_null() && v.AsString() == "c7";
    })));
    ExpectCachedEqualsScanned(copies, "merge-to-null");

    copies.Warm();
    ASSERT_TRUE(copies.Clean(ValueTransform("score", [](const Value& v) {
      if (v.is_null()) return v;
      const double x = v.AsDouble();
      if (x > 5e4) return Value::Null();
      return Value(x * 3.0 + 0.1);
    })));
    ExpectCachedEqualsScanned(copies, "transform on a summed column");

    // A cleaner that fails part-way (a string result on a double
    // column) leaves the relation as it was, and the caches it dropped
    // rebuild to the same answers.
    copies.Warm();
    EXPECT_FALSE(copies.Clean(ValueTransform("score", [](const Value& v) {
      if (!v.is_null() && v.AsDouble() > 1e3) return Value("bad");
      return v;
    })));
    ExpectCachedEqualsScanned(copies, "failed transform");
  }
}

TEST(ValueSumsTest, WarmedTableAnswersWithoutBuilding) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  PrivateTable pt = RandomPrivateTable(5000, 3);
  ASSERT_TRUE(pt.WarmCaches().ok());
  // Building a graph or per-value sums now fails, so every answer below
  // must come from a cache WarmCaches filled.
  ASSERT_TRUE(failpoint::Activate("query.scan.begin", failpoint::Fault{}).ok());
  ASSERT_TRUE(
      failpoint::Activate("provenance.graph.build", failpoint::Fault{}).ok());
  for (const char* key : {"city", "state"}) {
    for (const char* numeric : {"income", "units", "score"}) {
      const Predicate pred = Predicate::IsNotNull(key);
      EXPECT_TRUE(pt.Sum(numeric, pred).ok()) << key << " " << numeric;
      EXPECT_TRUE(pt.Avg(numeric, pred).ok()) << key << " " << numeric;
    }
    EXPECT_TRUE(pt.Count(Predicate::IsNull(key)).ok());
    EXPECT_TRUE(pt.GroupByCountEstimate(key).ok());
  }
  failpoint::DeactivateAll();
}

TEST(ValueSumsTest, HoldsAtMost64BytesPerValue) {
  // 100k rows over 50k distinct values (the scale Theorem 2 admits at
  // S = 1M), with Laplace-noised log-normal incomes.
  TableBuilder b(*Schema::Make({Field::Discrete("zip"),
                                Field::Numerical("income", ValueType::kDouble)}));
  Rng rng(17);
  for (size_t r = 0; r < 100000; ++r) {
    const double income =
        std::round(std::exp(rng.Gaussian(10.6, 0.5)) * 100.0) / 100.0;
    b.Row({Value("z" + std::to_string(rng.UniformInt(50000))),
           Value(income + rng.Laplace(0.0, 500.0))});
  }
  Table table = *b.Finish();
  ValueSums sums = *ComputeValueSums(table, "zip", "income");
  const size_t slots = sums.sums.size();
  EXPECT_EQ(slots, (*table.ColumnByName("zip"))->dictionary().size() + 1);
  EXPECT_LE(sums.MemoryBytes(), 64 * slots)
      << sums.MemoryBytes() / slots << " B per value";
}

TEST(ValueSumsTest, NonFiniteValuesKeepTheirMeaning) {
  TableBuilder b(*Schema::Make({Field::Discrete("city"),
                                Field::Numerical("x", ValueType::kDouble)}));
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, double>> rows = {
      {"a", 1.0}, {"a", inf}, {"b", 2.0}, {"b", -inf},
      {"c", std::nan("")}, {"d", 4.0}, {"d", 8.0}};
  for (const auto& [city, x] : rows) b.Row({Value(city), Value(x)});
  Table table = *b.Finish();
  for (const auto& [condition, matching, complement] :
       std::vector<std::tuple<std::string, double, double>>{
           {"city = 'a'", inf, std::nan("")},
           {"city IN ('a', 'd')", inf, std::nan("")},
           {"city IN ('a', 'b')", std::nan(""), std::nan("")},
           {"city = 'd'", 12.0, std::nan("")},
           {"city IN ('b', 'c', 'd')", std::nan(""), inf},
           {"NOT city = 'c'", std::nan(""), std::nan("")}}) {
    SCOPED_TRACE(condition);
    const Predicate pred = Where(condition);
    QueryScanStats scan = *ScanPredicateSums(table, pred, "x");
    ValueSums sums = *ComputeValueSums(table, "city", "x");
    ExactSum h_p;
    const Column& city = **table.ColumnByName("city");
    for (uint32_t code = 0; code < city.dictionary().size(); ++code) {
      if (pred.Matches(Value(std::string(city.dictionary().At(code))))) {
        sums.sums.AddTo(sums.SlotOf(code), &h_p);
      }
    }
    ExactSum h_not_p = sums.total;
    h_not_p.Subtract(h_p);
    for (const auto& [got, want] :
         {std::pair{scan.matching_sum, matching},
          std::pair{h_p.Round(), matching},
          std::pair{scan.complement_sum, complement},
          std::pair{h_not_p.Round(), complement}}) {
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << got;
      } else {
        EXPECT_EQ(got, want);
      }
    }
  }
}

}  // namespace
}  // namespace privateclean
