// The determinism contract of the parallel execution engine
// (common/thread_pool.h): rows are sharded by row count alone and every
// shard forks its own RNG stream by shard index, so for a fixed seed the
// output of GRR and of the query scans is bit-identical at every thread
// count. These tests run the same operation at 1, 2, and 8 threads on a
// table spanning multiple shards and require exact equality.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cleaning/merge.h"
#include "common/io_util.h"
#include "conjunctive_reference.h"
#include "core/private_table.h"
#include "core/release.h"
#include "datagen/synthetic.h"
#include "parallel_harness.h"
#include "privacy/grr.h"
#include "privacy/laplace_mechanism.h"
#include "provenance/provenance_graph.h"
#include "query/aggregate.h"
#include "table/csv.h"
#include "table/domain.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

// > 2 shards of kRowsPerShard rows, so the sharded paths genuinely
// split the data.
constexpr size_t kRows = 2 * kRowsPerShard + 1234;

const Table& TestTable() {
  static const Table* table = [] {
    SyntheticOptions options;
    options.num_rows = kRows;
    options.num_distinct = 30;
    Rng rng(7);
    return new Table(*GenerateSynthetic(options, rng));
  }();
  return *table;
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_TRUE(a.schema() == b.schema());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    ASSERT_EQ(ca.null_count(), cb.null_count()) << "column " << c;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_TRUE(ca.ValueAt(r) == cb.ValueAt(r))
          << "column " << c << " row " << r;
    }
  }
}

GrrOutput GrrAtThreads(size_t num_threads) {
  GrrOptions options;
  options.exec.num_threads = num_threads;
  Rng rng(42);
  return *ApplyGrr(TestTable(), GrrParams::Uniform(0.25, 5.0), options, rng);
}

TEST(ParallelDeterminismTest, GrrIdenticalAcrossThreadCounts) {
  GrrOutput base = GrrAtThreads(1);
  for (size_t threads : {2u, 8u}) {
    GrrOutput out = GrrAtThreads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectTablesIdentical(base.table, out.table);
    EXPECT_EQ(base.total_regenerations, out.total_regenerations);
  }
}

TEST(ParallelDeterminismTest, ScanIdenticalAcrossThreadCounts) {
  // The per-value build behind a corrected SUM/AVG: every value's exact
  // sum, the predicate's merged sum and its complement, and the moments.
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(3)});
  const ColumnCodes codes(**TestTable().ColumnByName("category"));
  ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
    const ValueSums sums =
        *ComputeValueSums(TestTable(), "category", "value", exec);
    const NumericMoments moments =
        *ComputeNumericMoments(TestTable(), "value", exec);
    ByteSink sink;
    ExactSum matching;
    for (uint32_t slot = 0; slot < codes.num_slots(); ++slot) {
      ExactSum one;
      sums.sums.AddTo(slot, &one);
      sink.AppendDoubleBits(one.Round());
      sink.AppendU64(one.count());
      if (pred.Matches(codes.ValueOf(slot))) sums.sums.AddTo(slot, &matching);
    }
    ExactSum complement = sums.total;
    complement.Subtract(matching);
    for (const ExactSum* sum : {&matching, &complement}) {
      sink.AppendDoubleBits(sum->Round());
      sink.AppendU64(sum->count());
    }
    sink.AppendDoubleBits(moments.mean);
    sink.AppendDoubleBits(moments.variance);
    return std::move(sink).Finish();
  });
}

TEST(ParallelDeterminismTest, ConjunctiveScanIdenticalAcrossThreadCounts) {
  // Conjunctive counts need predicates on two different attributes; turn
  // the numeric column into a predicate via a UDF. It has no row index,
  // so the discrete side drives and the count is count_tt.
  Predicate cond_a = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1)});
  Predicate cond_b = Predicate::Udf("value", [](const Value& v) {
    return !v.is_null() && v.AsDouble() < 50.0;
  });
  const ConjunctiveScanStats reference =
      testing_reference::ReferenceQuadrants(TestTable(), cond_a, cond_b);
  const RowIndex base = testing_reference::TestRowIndex(TestTable(),
                                                        "category");
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecutionOptions exec;
    exec.num_threads = threads;
    const RowIndex index =
        testing_reference::TestRowIndex(TestTable(), "category", threads);
    EXPECT_EQ(index.rows, base.rows);
    EXPECT_EQ(index.offsets, base.offsets);
    size_t rows_a = 0;
    EXPECT_EQ(*CountMatchingBoth(TestTable(), cond_a, &index, cond_b,
                                 nullptr, exec, &rows_a),
              reference.count_tt);
    EXPECT_EQ(rows_a, reference.count_tt + reference.count_tf);
  }
}

TEST(ParallelDeterminismTest, PrivateTableQueryIdenticalAcrossThreadCounts) {
  Rng rng(11);
  PrivateTable pt = *PrivateTable::Create(
      TestTable(), GrrParams::Uniform(0.2, 5.0), GrrOptions{}, rng);
  Predicate pred = Predicate::Equals("category", SyntheticCategory(0));
  QueryOptions options;
  options.exec.num_threads = 1;
  QueryResult base = *pt.Count(pred, options);
  for (size_t threads : {2u, 8u}) {
    options.exec.num_threads = threads;
    QueryResult r = *pt.Count(pred, options);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(r.estimate, base.estimate);
    EXPECT_EQ(r.ci.lo, base.ci.lo);
    EXPECT_EQ(r.ci.hi, base.ci.hi);
    EXPECT_EQ(r.nominal, base.nominal);
  }
}

TEST(ParallelDeterminismTest, SmallTableRegenerationStillWorks) {
  // Domain preservation via regeneration must survive the sharded
  // rewrite: a small table with aggressive randomization regenerates
  // until every dirty value is visible again, identically at every
  // thread count.
  SyntheticOptions options;
  options.num_rows = 400;
  options.num_distinct = 12;
  options.zipf_skew = 0.0;
  Rng data_rng(3);
  Table small = *GenerateSynthetic(options, data_rng);

  GrrOptions grr_options;
  grr_options.exec.num_threads = 1;
  Rng rng1(5);
  GrrOutput base =
      *ApplyGrr(small, GrrParams::Uniform(0.9, 1.0), grr_options, rng1);
  Domain after = *Domain::FromColumn(base.table, "category");
  Domain before = *Domain::FromColumn(small, "category");
  EXPECT_EQ(after.size(), before.size());

  grr_options.exec.num_threads = 8;
  Rng rng8(5);
  GrrOutput parallel =
      *ApplyGrr(small, GrrParams::Uniform(0.9, 1.0), grr_options, rng8);
  ExpectTablesIdentical(base.table, parallel.table);
  EXPECT_EQ(base.total_regenerations, parallel.total_regenerations);
}

// --- The five sharded hot paths, via the byte-exact harness ------------

void AppendStatusOrDouble(ByteSink* sink, const Result<double>& r) {
  sink->AppendU64(r.ok() ? 1 : 0);
  if (r.ok()) {
    sink->AppendDoubleBits(*r);
  } else {
    sink->AppendU64(static_cast<uint64_t>(r.status().code()));
    sink->AppendString(r.status().message());
  }
}

void AppendQueryResult(ByteSink* sink, const QueryResult& r) {
  sink->AppendDoubleBits(r.estimate);
  sink->AppendDoubleBits(r.ci.lo);
  sink->AppendDoubleBits(r.ci.hi);
  sink->AppendDoubleBits(r.nominal);
  sink->AppendDoubleBits(r.p);
  sink->AppendDoubleBits(r.l);
  sink->AppendDoubleBits(r.n);
  sink->AppendU64(r.s);
}

TEST(ParallelDeterminismTest, GroupByCountIdenticalAcrossThreadCounts) {
  Rng rng(13);
  PrivateTable pt = *PrivateTable::Create(
      TestTable(), GrrParams::Uniform(0.2, 5.0), GrrOptions{}, rng);
  // Merge two categories so the estimate runs on a cleaned relation with
  // a non-trivial provenance graph.
  ASSERT_TRUE(pt.Clean(FindReplace::Single("category", SyntheticCategory(1),
                                           SyntheticCategory(0)))
                  .ok());
  ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
    QueryOptions options;
    options.exec = exec;
    auto groups = *pt.GroupByCountEstimate("category", options);
    ByteSink sink;
    sink.AppendU64(groups.size());
    for (const auto& [value, result] : groups) {
      sink.AppendValue(value);
      AppendQueryResult(&sink, result);
    }
    return std::move(sink).Finish();
  });
}

TEST(ParallelDeterminismTest, ExecuteAggregateIdenticalAcrossThreadCounts) {
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(2)});
  std::vector<AggregateQuery> queries = {
      AggregateQuery::Count(pred),
      AggregateQuery::Sum("value", pred),
      AggregateQuery::Avg("value", pred),
      AggregateQuery{AggregateType::kVar, "value", pred, 50.0},
      AggregateQuery{AggregateType::kStd, "value", pred, 50.0},
      AggregateQuery{AggregateType::kMedian, "value", pred, 50.0},
      AggregateQuery{AggregateType::kPercentile, "value", pred, 90.0},
  };
  ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
    ByteSink sink;
    for (const AggregateQuery& query : queries) {
      AppendStatusOrDouble(&sink, ExecuteAggregate(TestTable(), query, exec));
    }
    return std::move(sink).Finish();
  });
}

TEST(ParallelDeterminismTest, ColumnSensitivityIdenticalAcrossThreadCounts) {
  const Column& value_col = **TestTable().ColumnByName("value");
  ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
    ByteSink sink;
    AppendStatusOrDouble(&sink, ColumnSensitivity(value_col, exec));
    return std::move(sink).Finish();
  });
}

TEST(ParallelDeterminismTest, CsvWriteAndReadIdenticalAcrossThreadCounts) {
  const Schema& schema = TestTable().schema();
  CsvOptions serial;
  const std::string serial_text = TableToCsv(TestTable(), serial);
  ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
    CsvOptions options;
    options.exec = exec;
    const std::string text = TableToCsv(TestTable(), options);
    Table parsed = *CsvToTable(text, schema, options);
    ByteSink sink;
    sink.AppendString(text);
    sink.AppendTable(parsed);
    return std::move(sink).Finish();
  });
  // And the sharded writer reproduces the serial byte stream.
  CsvOptions parallel;
  parallel.exec.num_threads = 8;
  EXPECT_EQ(TableToCsv(TestTable(), parallel), serial_text);
}

TEST(ParallelDeterminismTest, ProvenanceBuildIdenticalAcrossThreadCounts) {
  // Dirty column spanning several shards; the clean column merges c1
  // into c0 and forks c2 by row parity, so the graph has both a merged
  // and a forked dirty value.
  const Column& dirty = **TestTable().ColumnByName("category");
  Column clean = *Column::Make(ValueType::kString);
  for (size_t r = 0; r < dirty.size(); ++r) {
    Value v = dirty.ValueAt(r);
    if (v == SyntheticCategory(1)) {
      v = SyntheticCategory(0);
    } else if (v == SyntheticCategory(2)) {
      v = Value(r % 2 == 0 ? "c2-even" : "c2-odd");
    }
    ASSERT_TRUE(clean.AppendValue(v).ok());
  }
  Domain dirty_domain = *Domain::FromColumn(TestTable(), "category");
  ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
    ProvenanceGraph g =
        *ProvenanceGraph::Build(dirty, clean, dirty_domain, exec);
    ByteSink sink;
    AppendProvenanceGraph(&sink, g);
    return std::move(sink).Finish();
  });
}

// --- Shard-boundary and degenerate table sizes -------------------------

Table SizedTable(size_t rows) {
  Schema schema = *Schema::Make({Field::Discrete("category"),
                                 Field::Numerical("value", ValueType::kDouble)});
  TableBuilder builder(schema);
  for (size_t r = 0; r < rows; ++r) {
    // A small rotating category set with periodic nulls in both columns,
    // so every path sees nulls and repeated values.
    Value category = r % 7 == 3 ? Value::Null()
                                : Value("g" + std::to_string(r % 5));
    Value value = r % 11 == 5 ? Value::Null()
                              : Value(static_cast<double>(r % 97) / 7.0);
    builder.Row({category, value});
  }
  return *builder.Finish();
}

/// Two discrete columns for the sharded Domain count. `late`'s
/// dictionary is interned in reverse, so its codes do not follow row
/// first-appearance order, and its second half opens with values the
/// first half lacks, then repeats earlier ones in another order: at
/// 16385 rows and 2 workers, w3..w6 first appear in the second worker's
/// range. `level` holds NULL, -0.0 before +0.0 (one value, kept with its
/// first row's sign) and NaN (a value of its own per row).
std::vector<Column> DomainColumns(size_t rows) {
  Column late = *Column::Make(ValueType::kString);
  for (int v = 9; v >= 0; --v) late.InternString("w" + std::to_string(v));
  Column level = *Column::Make(ValueType::kDouble);
  for (size_t r = 0; r < rows; ++r) {
    if (r % 11 == 4) {
      late.AppendNull();
    } else if (r < rows / 2) {
      late.AppendString("w" + std::to_string(r % 3));
    } else {
      late.AppendString("w" + std::to_string(7 - r % 8));
    }
    if (r % 13 == 6) {
      level.AppendNull();
    } else if (r % 17 == 9) {
      level.AppendDouble(std::nan(""));
    } else if (r % 2 == 0) {
      level.AppendDouble(r % 4 == 0 ? -0.0 : 0.0);
    } else {
      level.AppendDouble(r < rows / 2 ? static_cast<double>(r % 5)
                                      : 10.5 - static_cast<double>(r % 3));
    }
  }
  std::vector<Column> columns;
  columns.push_back(std::move(late));
  columns.push_back(std::move(level));
  return columns;
}

void AppendDomain(ByteSink* sink, const Domain& domain) {
  sink->AppendU64(domain.size());
  for (size_t i = 0; i < domain.size(); ++i) {
    sink->AppendValue(domain.value(i));
    sink->AppendU64(domain.frequency(i));
  }
}

TEST(ParallelDeterminismTest, EdgeCaseSizesIdenticalAcrossThreadCounts) {
  // Empty, single-row, exactly one full shard, and one row over the
  // shard boundary: the layouts where shard arithmetic can go wrong.
  for (size_t rows : {size_t{0}, size_t{1}, kRowsPerShard,
                      kRowsPerShard + 1}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    Table table = SizedTable(rows);
    const std::vector<Column> domain_columns = DomainColumns(rows);
    Predicate pred = Predicate::Equals("category", Value("g2"));
    Domain dirty_domain = Domain::FromValues(
        {Value("g0"), Value("g1"), Value("g2"), Value("g3"), Value("g4"),
         Value::Null()});
    ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
      ByteSink sink;
      AppendStatusOrDouble(
          &sink, ExecuteAggregate(table, AggregateQuery::Count(pred), exec));
      AppendStatusOrDouble(
          &sink,
          ExecuteAggregate(table, AggregateQuery::Sum("value", pred), exec));
      AppendStatusOrDouble(
          &sink,
          ExecuteAggregate(table, AggregateQuery::Avg("value", pred), exec));
      AppendStatusOrDouble(&sink,
                           ColumnSensitivity(*table.ColumnByName("value")
                                                  .ValueOrDie(),
                                             exec));
      CsvOptions csv;
      csv.exec = exec;
      csv.null_literal = "\\N";
      const std::string text = TableToCsv(table, csv);
      sink.AppendString(text);
      sink.AppendTable(*CsvToTable(text, table.schema(), csv));
      ProvenanceGraph g = *ProvenanceGraph::Build(
          table.column(0), table.column(0), dirty_domain, exec);
      AppendProvenanceGraph(&sink, g);
      for (const Column& column : domain_columns) {
        for (bool include_null : {true, false}) {
          AppendDomain(&sink, Domain::FromCodes(ColumnCodes(column),
                                                include_null, exec));
        }
      }
      return std::move(sink).Finish();
    });
    // The reference: every row's value in row order, which FromValues
    // dedups in first-appearance order.
    for (const Column& column : domain_columns) {
      std::vector<Value> values;
      for (size_t r = 0; r < rows; ++r) values.push_back(column.ValueAt(r));
      ByteSink expected, actual;
      AppendDomain(&expected, Domain::FromValues(values));
      ExecutionOptions exec;
      exec.num_threads = 2;
      AppendDomain(&actual, Domain::FromCodes(ColumnCodes(column), true, exec));
      EXPECT_TRUE(std::move(actual).Finish() == std::move(expected).Finish());
    }
  }
}

// --- Pinned multi-shard release bytes ---------------------------------

/// 3 shards + 1 row of every column kind GRR perturbs: a string discrete
/// column with NULLs, an int64 discrete column whose 200 single-row
/// values make the Theorem 2 coverage check fail about two attempts in
/// five, a double discrete column with NULL, -0.0, +0.0 and NaN, and
/// finite int64 and double numeric columns.
Table PinnedReleaseInput() {
  const size_t rows = 3 * kRowsPerShard + 1;
  Schema schema = *Schema::Make(
      {Field::Discrete("city"), Field::Discrete("level", ValueType::kInt64),
       Field::Discrete("reading", ValueType::kDouble),
       Field::Numerical("age", ValueType::kInt64),
       Field::Numerical("income", ValueType::kDouble)});
  TableBuilder builder(schema);
  Rng rng(2027);
  const std::vector<double> readings = {-0.0, 0.0, 1.5, 2.5};
  for (size_t r = 0; r < rows; ++r) {
    Value city = r % 13 == 7 ? Value::Null()
                             : Value("c" + std::to_string(rng.UniformInt(30)));
    const auto level = static_cast<int64_t>(
        r % 245 == 17 ? 1000 + r / 245 : rng.UniformInt(620));
    Value reading = r % 19 == 2 ? Value::Null()
                    : r % 16001 == 5
                        ? Value(std::nan(""))
                        : Value(readings[rng.UniformInt(readings.size())]);
    builder.Row({city, Value(level), reading,
                 Value(static_cast<int64_t>(18 + rng.UniformInt(73))),
                 Value(rng.UniformRealRange(1000.0, 90000.0))});
  }
  return *builder.Finish();
}

/// CRC32C of every file of the release `ApplyGrr` + `WriteRelease` make
/// of PinnedReleaseInput at `threads`, by file name; `regenerations`
/// receives the GRR's coverage retries.
std::map<std::string, uint32_t> PinnedReleaseCrcs(const Table& input,
                                                  size_t threads,
                                                  size_t* regenerations) {
  GrrParams params;
  params.discrete_p = {{"city", 0.25}, {"level", 0.05}, {"reading", 0.3}};
  params.numeric_b = {{"age", 2.0}, {"income", 500.0}};
  GrrOptions options;
  options.exec.num_threads = threads;
  Rng rng(4711);
  GrrOutput out = *ApplyGrr(input, params, options, rng);
  *regenerations = out.total_regenerations;
  const std::string dir = ::testing::TempDir() + "/pinned_release_" +
                          std::to_string(threads) + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(WriteRelease(out, dir, options.exec).ok());
  std::map<std::string, uint32_t> crcs;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    crcs[entry.path().filename().string()] = io::Crc32c(bytes.str());
  }
  std::filesystem::remove_all(dir);
  return crcs;
}

TEST(ParallelDeterminismTest, MultiShardReleaseBytesArePinned) {
  // The golden pipeline's 400 rows fit in one shard; these constants pin
  // the bytes of a release whose every column spans four shards (forked
  // streams, per-shard coverage, a regeneration) across commits, at 1, 2
  // and 8 threads.
  const std::map<std::string, uint32_t> pinned = {
      {"MANIFEST", 0xf1885b75u},     {"column_0.bin", 0x8004185au},
      {"column_1.bin", 0x61598a6fu}, {"column_2.bin", 0x369eba8du},
      {"column_3.bin", 0x3ed66267u}, {"column_4.bin", 0x51d98885u},
      {"domain_0.bin", 0xc2a1f1ceu}, {"domain_1.bin", 0x9cdf3b26u},
      {"domain_2.bin", 0x529a32ebu},
  };
  const Table input = PinnedReleaseInput();
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    size_t regenerations = 0;
    const std::map<std::string, uint32_t> crcs =
        PinnedReleaseCrcs(input, threads, &regenerations);
    EXPECT_GE(regenerations, 1u);
    std::string actual;
    for (const auto& [file, crc] : crcs) {
      actual += "{\"" + file + "\", 0x" + io::Crc32cToHex(crc) + "u},\n";
    }
    EXPECT_TRUE(crcs == pinned) << actual;
  }
}

// --- Bootstrap replicates ----------------------------------------------

void AppendBootstrapResult(ByteSink* sink, const QueryResult& r) {
  AppendQueryResult(sink, r);
  sink->AppendU64(r.replicates_requested);
  sink->AppendU64(r.replicates_effective);
}

TEST(ParallelDeterminismTest, BootstrapIdenticalAcrossThreadCounts) {
  // The replicate loop forks one RNG stream per replicate in replicate
  // index order and merges replicate values in replicate order, so the
  // whole interval is bit-identical at any thread count. 24 replicates
  // span 24 coarse shards (ShardCountForCoarseItems), exercising real
  // cross-thread scheduling at 2 and 8 threads.
  SyntheticOptions options;
  options.num_rows = 1500;
  options.num_distinct = 12;
  Rng data_rng(17);
  Table data = *GenerateSynthetic(options, data_rng);
  Rng grr_rng(18);
  PrivateTable pt = *PrivateTable::Create(
      data, GrrParams::Uniform(0.1, 3.0), GrrOptions{}, grr_rng);
  std::vector<AggregateQuery> queries = {
      AggregateQuery{AggregateType::kMedian, "value", std::nullopt, 50.0},
      AggregateQuery{AggregateType::kPercentile, "value", std::nullopt, 90.0},
      AggregateQuery{AggregateType::kVar, "value", std::nullopt, 50.0},
      AggregateQuery{AggregateType::kStd, "value", std::nullopt, 50.0},
  };
  ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
    ByteSink sink;
    for (const AggregateQuery& query : queries) {
      Rng boot_rng(23);
      QueryResult r =
          *pt.BootstrapExtendedAggregate(query, boot_rng, 24, 0.95, exec);
      AppendBootstrapResult(&sink, r);
    }
    return std::move(sink).Finish();
  });
}

TEST(ParallelDeterminismTest,
     BootstrapWithDegenerateReplicatesIdenticalAcrossThreadCounts) {
  // A predicate matching only two rows makes a resample degenerate
  // whenever it draws neither row (probability ≈ e^-2 per replicate), so
  // some replicates drop out. The dropped set — and therefore the
  // effective replicate count and the interval — must not depend on the
  // thread count: RNG streams are forked by replicate index before any
  // replicate is known to be degenerate.
  Schema schema = *Schema::Make(
      {Field::Discrete("category"),
       Field::Numerical("value", ValueType::kDouble)});
  TableBuilder builder(schema);
  Rng data_rng(29);
  const size_t rows = 1500;
  for (size_t r = 0; r < rows; ++r) {
    Value category = (r == 100 || r == 900) ? Value("rare") : Value("common");
    builder.Row({category, Value(data_rng.UniformRealRange(0.0, 100.0))});
  }
  Table data = *builder.Finish();
  PrivateRelationMetadata meta;
  meta.discrete.emplace(
      "category",
      DiscreteAttributeMeta{0.1, *Domain::FromColumn(data, "category")});
  meta.numeric.emplace("value", NumericAttributeMeta{3.0, 100.0});
  // FromPrivateRelation keeps the rows exactly as built, so the rare
  // category stays at exactly two occurrences.
  PrivateTable pt = *PrivateTable::FromPrivateRelation(data.Clone(), meta);
  AggregateQuery median{AggregateType::kMedian, "value",
                        Predicate::Equals("category", Value("rare")), 50.0};

  ExecutionOptions serial;
  Rng probe_rng(31);
  QueryResult probe =
      *pt.BootstrapExtendedAggregate(median, probe_rng, 20, 0.95, serial);
  // The fixed seed must actually produce degenerate replicates, or this
  // test exercises nothing.
  ASSERT_LT(probe.replicates_effective, probe.replicates_requested);
  ASSERT_GE(2 * probe.replicates_effective, probe.replicates_requested);

  ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
    Rng boot_rng(31);
    QueryResult r =
        *pt.BootstrapExtendedAggregate(median, boot_rng, 20, 0.95, exec);
    ByteSink sink;
    AppendBootstrapResult(&sink, r);
    return std::move(sink).Finish();
  });
}

}  // namespace
}  // namespace privateclean
