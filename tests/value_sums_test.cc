#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
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
// the clean values a predicate matches, and h_p^c as total − h_p, for a
// predicate attribute of any type. This suite checks them bit for bit
// against the estimators over stats the test builds itself (a boxed row
// mask, an independent big-integer reference sum, ComputeNumericMoments),
// on random tables with NULLs on both sides, string, int64 and double
// keys (±0.0 and NaN among the double's rows), row counts on both sides
// of kRowsPerShard, cleaners between queries, and 1, 2 and 8 threads.

namespace privateclean {
namespace {

using testing_reference::ReferenceExactSum;

/// A random relation: two string attributes (one with NULLs and ''), a
/// double income with NULLs across a wide range of magnitudes, an int64
/// column with NULLs, a discrete double `score` with NULLs (summable,
/// and cleanable by a ValueTransform), a discrete int64 `grade` with
/// NULLs, and a discrete double `level` with NULLs whose rows hold both
/// -0.0 and +0.0 (one value; a ValueTransform later adds NaN rows).
Table RandomRelation(size_t rows, uint64_t seed) {
  TableBuilder b(*Schema::Make(
      {Field::Discrete("city"), Field::Discrete("state"),
       Field::Numerical("income", ValueType::kDouble),
       Field::Numerical("units", ValueType::kInt64),
       Field::Discrete("score", ValueType::kDouble),
       Field::Discrete("grade", ValueType::kInt64),
       Field::Discrete("level", ValueType::kDouble)}));
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
    Value grade = rng.Bernoulli(0.05)
                      ? Value::Null()
                      : Value(static_cast<int64_t>(rng.UniformInt(9)) - 3);
    Value level = rng.Bernoulli(0.05)   ? Value::Null()
                  : rng.Bernoulli(0.08) ? Value(-0.0)
                                        : Value(0.25 * static_cast<double>(
                                                           rng.UniformInt(12)) -
                                                1.0);
    b.Row({city, state, income, units, score, grade, level});
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
      Predicate::Equals("grade", Value(int64_t{2})),
      Predicate::IsNull("grade"),
      Where("grade >= 0 AND NOT grade = 4 OR grade IS NULL"),
      Predicate::Equals("level", Value(0.0)),
      Predicate::Equals("level", Value(-0.0)),
      Predicate::IsNotNull("level"),
      Where("level < 0.5 AND NOT level = -0.25"),
      Predicate::Udf("level",
                     [](const Value& v) {
                       return !v.is_null() && std::isnan(v.AsDouble());
                     }),
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

/// A predicate's row mask, by a boxed per-row Matches.
std::vector<uint8_t> RowMask(const Table& relation, const Predicate& pred) {
  const Column& key = **relation.ColumnByName(pred.attribute());
  std::vector<uint8_t> mask(relation.num_rows());
  for (size_t r = 0; r < mask.size(); ++r) {
    mask[r] = pred.Matches(key.ValueAt(r)) ? 1 : 0;
  }
  return mask;
}

/// The QueryScanStats of the rows `mask` selects over `numeric`, built
/// without the library's sums: the big-integer reference sums of the
/// non-null values on either side, and ComputeNumericMoments.
QueryScanStats ReferenceStats(const Table& relation,
                              const std::vector<uint8_t>& mask,
                              const std::string& numeric) {
  const Column& values = **relation.ColumnByName(numeric);
  QueryScanStats stats;
  stats.total_rows = relation.num_rows();
  std::vector<double> sums[2];  // [0] the complement, [1] the matches.
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    stats.matching_rows += mask[r];
    if (!values.IsNull(r)) sums[mask[r]].push_back(values.NumericAt(r));
  }
  stats.matching_sum = ReferenceExactSum(sums[1]);
  stats.complement_sum = ReferenceExactSum(sums[0]);
  stats.matching_non_null = sums[1].size();
  stats.total_non_null = sums[0].size() + sums[1].size();
  const NumericMoments moments = *ComputeNumericMoments(relation, numeric);
  stats.numeric_mean = moments.mean;
  stats.numeric_variance = moments.variance;
  return stats;
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
/// equals the estimator over the reference stats, bit for bit.
void ExpectCachedEqualsReference(const TableCopies& copies,
                                 const std::string& stage) {
  const PrivateTable& reference = copies.tables.front();
  const std::vector<Predicate> battery = Battery();
  for (size_t i = 0; i < battery.size(); ++i) {
    const Predicate& pred = battery[i];
    const std::vector<uint8_t> mask = RowMask(reference.relation(), pred);
    for (const char* numeric : {"income", "units", "score"}) {
      auto in = reference.InputsForPredicate(pred, numeric, QueryOptions());
      ASSERT_TRUE(in.ok()) << in.status().ToString();
      const QueryScanStats stats =
          ReferenceStats(reference.relation(), mask, numeric);
      for (size_t k = 0; k < copies.tables.size(); ++k) {
        SCOPED_TRACE(stage + " threads=" + std::to_string(kThreadCounts[k]) +
                     " " + numeric + " predicate " + std::to_string(i));
        const PrivateTable& pt = copies.tables[k];
        const QueryOptions options = TableCopies::Options(k);
        const Result<QueryResult> cached[] = {pt.Sum(numeric, pred, options),
                                              pt.Avg(numeric, pred, options)};
        const Result<QueryResult> want[] = {EstimateSum(stats, *in),
                                            EstimateAvg(stats, *in)};
        for (int a = 0; a < 2; ++a) {
          SCOPED_TRACE(a == 0 ? "sum" : "avg");
          ASSERT_EQ(cached[a].ok(), want[a].ok())
              << cached[a].status().ToString() << " vs "
              << want[a].status().ToString();
          if (!cached[a].ok()) {
            EXPECT_EQ(cached[a].status().code(), want[a].status().code());
            continue;
          }
          ByteSink got_bytes;
          ByteSink want_bytes;
          AppendResult(&got_bytes, *cached[a]);
          AppendResult(&want_bytes, *want[a]);
          EXPECT_TRUE(std::move(got_bytes).Finish() ==
                      std::move(want_bytes).Finish())
              << "cached " << cached[a]->estimate << " vs reference "
              << want[a]->estimate;
        }
      }
    }
  }
}

TEST(ValueSumsTest, CachedSumAndAvgEqualTheExactScanThroughCleaning) {
  for (size_t rows : {kRowsPerShard - 1, kRowsPerShard + 1, 2 * kRowsPerShard + 7}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    TableCopies copies(rows, rows);
    ExpectCachedEqualsReference(copies, "fresh");

    ASSERT_TRUE(copies.Clean(FindReplace("city", {{Value("c1"), Value("c0")},
                                                  {Value("c4"), Value::Null()},
                                                  {Value::Null(), Value("filled")}})));
    ExpectCachedEqualsReference(copies, "find-replace");

    ASSERT_TRUE(copies.Clean(DomainMerge("state",
                                         [](const Value& v, const Domain&) {
                                           if (v.is_null()) return v;
                                           return v.AsString() >= "s6"
                                                      ? Value("s0")
                                                      : v;
                                         })));
    ExpectCachedEqualsReference(copies, "domain-merge");

    ASSERT_TRUE(copies.Clean(MergeToNull("city", [](const Value& v) {
      return !v.is_null() && v.AsString() == "c7";
    })));
    ExpectCachedEqualsReference(copies, "merge-to-null");


    copies.Warm();
    ASSERT_TRUE(copies.Clean(ValueTransform("score", [](const Value& v) {
      if (v.is_null()) return v;
      const double x = v.AsDouble();
      if (x > 5e4) return Value::Null();
      return Value(x * 3.0 + 0.1);
    })));
    ExpectCachedEqualsReference(copies, "transform on a summed column");

    // A cleaner that fails part-way (a string result on a double
    // column) leaves the relation as it was, and the caches it dropped
    // rebuild to the same answers.
    copies.Warm();
    EXPECT_FALSE(copies.Clean(ValueTransform("score", [](const Value& v) {
      if (!v.is_null() && v.AsDouble() > 1e3) return Value("bad");
      return v;
    })));
    ExpectCachedEqualsReference(copies, "failed transform");

    // Each NaN row is a clean value of its own.
    ASSERT_TRUE(copies.Clean(ValueTransform("level", [](const Value& v) {
      return !v.is_null() && v.AsDouble() == 1.75 ? Value(std::nan("")) : v;
    })));
    ExpectCachedEqualsReference(copies, "level to NaN");
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
  for (const char* key : {"city", "state", "score", "grade", "level"}) {
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

TEST(ValueSumsTest, GraphSlotsNameTheSummedRows) {
  // A corrected SUM reads clean value i's rows from the per-value sums
  // at the graph's clean_slot(i). For a string, an int64 and a double key
  // (±0.0 one value, each NaN row a value of its own), after cleaning,
  // each clean index names its own slot, and that slot holds exactly the
  // incomes of the rows holding its value.
  PrivateTable pt = RandomPrivateTable(kRowsPerShard + 1, 5);
  ASSERT_TRUE(pt.Clean(FindReplace("grade", {{Value(int64_t{1}),
                                              Value(int64_t{0})}}))
                  .ok());
  ASSERT_TRUE(pt.Clean(ValueTransform("level", [](const Value& v) {
                  if (v.is_null() || v.AsDouble() < 1.0) return v;
                  return Value(std::nan(""));
                })).ok());
  const Table& relation = pt.relation();
  const Column& income = **relation.ColumnByName("income");
  auto is_nan = [](const Value& v) {
    return v.type() == ValueType::kDouble && std::isnan(v.AsDouble());
  };
  for (const char* key : {"city", "grade", "level"}) {
    SCOPED_TRACE(key);
    const ProvenanceGraph& graph = **pt.ProvenanceFor(key);
    const Domain& clean = graph.clean_domain();
    const ValueSums sums = *ComputeValueSums(relation, key, "income");
    // Each row's clean index: by value, except that the k-th NaN row
    // holds the k-th NaN value (the clean domain is in row
    // first-appearance order).
    std::vector<size_t> nan_indices;
    for (size_t i = 0; i < clean.size(); ++i) {
      if (is_nan(clean.value(i))) nan_indices.push_back(i);
    }
    std::vector<std::vector<double>> incomes(clean.size());
    const Column& column = **relation.ColumnByName(key);
    size_t nan_rows = 0;
    for (size_t r = 0; r < relation.num_rows(); ++r) {
      const Value v = column.ValueAt(r);
      size_t i = 0;
      if (is_nan(v)) {
        ASSERT_LT(nan_rows, nan_indices.size());
        i = nan_indices[nan_rows++];
      } else {
        i = *clean.IndexOf(v);
      }
      if (!income.IsNull(r)) incomes[i].push_back(income.NumericAt(r));
    }
    EXPECT_EQ(nan_rows, nan_indices.size());
    if (std::string(key) == "level") {
      EXPECT_GT(nan_rows, 0u);
    }
    std::set<uint32_t> slots;
    for (size_t i = 0; i < clean.size(); ++i) {
      EXPECT_TRUE(slots.insert(graph.clean_slot(i)).second)
          << "clean index " << i << " shares a slot";
      ExactSum sum;
      sums.sums.AddTo(graph.clean_slot(i), &sum);
      EXPECT_EQ(sum.count(), incomes[i].size()) << "clean index " << i;
      EXPECT_EQ(Bits(sum.Round()), Bits(ReferenceExactSum(incomes[i])))
          << "clean index " << i;
    }
  }
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
    ValueSums sums = *ComputeValueSums(table, "city", "x");
    ExactSum h_p;
    const ColumnCodes city(**table.ColumnByName("city"));
    for (uint32_t slot = 0; slot < city.num_slots(); ++slot) {
      if (pred.Matches(city.ValueOf(slot))) sums.sums.AddTo(slot, &h_p);
    }
    ExactSum h_not_p = sums.total;
    h_not_p.Subtract(h_p);
    for (const auto& [got, want] : {std::pair{h_p.Round(), matching},
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
