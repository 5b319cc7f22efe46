#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/privateclean.h"
#include "core/release.h"
#include "core/sql_execution.h"
#include "datagen/synthetic.h"
#include "privacy/grr.h"
#include "server/client.h"
#include "server/server.h"
#include "table/csv.h"

// Golden end-to-end regression: a fixed-seed run of the full pipeline —
// synthetic dirty relation → CSV round trip through the chunked CSV
// reader → GRR privatization → Transform cleaning (which rebuilds the
// provenance graph) → COUNT/SUM/AVG estimates — bit-compared against a
// checked-in golden file. Estimates and confidence bounds are serialized
// as raw IEEE-754 hex, so any change to the parser, the sharded
// estimator passes, the RNG forking discipline, or the provenance cut
// that perturbs even the last ulp of any result fails this test. Runs at
// 1, 2, and 8 threads (label `determinism`, so scripts/verify.sh also
// runs it under TSan): every thread count must reproduce the same file.

#ifndef PCLEAN_TEST_DATA_DIR
#error "PCLEAN_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace privateclean {
namespace {

std::string HexBits(double v) {
  uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

/// Runs the whole pipeline at `threads` and renders every estimate as
/// "name <estimate-bits> <ci.lo-bits> <ci.hi-bits>" lines.
std::string RunPipeline(size_t threads) {
  ExecutionOptions exec;
  exec.num_threads = threads;

  // Provider side: a skewed synthetic relation, serialized to CSV and
  // ingested with framing chunks small enough that the 400-row text
  // spans many chunk boundaries.
  SyntheticOptions data_options;
  data_options.num_rows = 400;
  data_options.num_distinct = 20;
  data_options.zipf_skew = 1.5;
  Rng data_rng(777);
  Table dirty = *GenerateSynthetic(data_options, data_rng);

  CsvOptions csv;
  csv.null_literal = "\\N";
  csv.exec = exec;
  csv.split_chunk_bytes = 256;
  std::string text = TableToCsv(dirty, csv);
  Table ingested = *CsvToTable(text, dirty.schema(), csv);

  GrrOptions grr_options;
  grr_options.exec = exec;
  Rng grr_rng(4242);
  PrivateTable pt = *PrivateTable::Create(
      ingested, GrrParams::Uniform(0.25, 5.0), grr_options, grr_rng);

  // Analyst side: merge two categories (a Transform), which invalidates
  // and lazily rebuilds the provenance graph inside the queries below.
  EXPECT_TRUE(pt.Clean(FindReplace::Single("category", SyntheticCategory(3),
                                           SyntheticCategory(0)))
                  .ok());

  QueryOptions query_options;
  query_options.exec = exec;
  const char* queries[][2] = {
      {"count_c0", "SELECT count(1) FROM r WHERE category = 'c0'"},
      {"count_c7", "SELECT count(1) FROM r WHERE category = 'c7'"},
      {"sum_c0", "SELECT sum(value) FROM r WHERE category = 'c0'"},
      {"avg_c1", "SELECT avg(value) FROM r WHERE category = 'c1'"},
      {"avg_all", "SELECT avg(value) FROM r"},
  };
  std::ostringstream out;
  for (const auto& q : queries) {
    QueryResult r = *ExecuteSql(pt, q[1], query_options);
    out << q[0] << " " << HexBits(r.estimate) << " " << HexBits(r.ci.lo)
        << " " << HexBits(r.ci.hi) << "\n";
  }

  // The grown grammar: range predicates, boolean WHERE trees, IN lists —
  // all collapse to one predicate and route through the same corrected
  // estimators, so their estimates golden-pin the vectorized comparison
  // and mask-combination kernels too.
  const char* grown[][2] = {
      {"count_range", "SELECT count(1) FROM r WHERE category >= 'c2' AND "
                      "category < 'c6'"},
      {"count_not_or", "SELECT count(1) FROM r WHERE NOT (category = 'c0' "
                       "OR category = 'c1')"},
      {"count_in", "SELECT count(1) FROM r WHERE category IN ('c1', 'c2', "
                   "'c5')"},
      {"sum_range", "SELECT sum(value) FROM r WHERE category <= 'c1'"},
  };
  for (const auto& q : grown) {
    QueryResult r = *ExecuteSql(pt, q[1], query_options);
    out << q[0] << " " << HexBits(r.estimate) << " " << HexBits(r.ci.lo)
        << " " << HexBits(r.ci.hi) << "\n";
  }

  // Grouped rows: keys and per-group corrected estimates, after ORDER BY
  // estimate / LIMIT shaping.
  SqlResultSet grouped = *ExecuteSqlQuery(
      pt,
      "SELECT count(1) FROM r GROUP BY category ORDER BY count(1) DESC "
      "LIMIT 3",
      query_options);
  for (const SqlRow& row : grouped.rows) {
    out << "group_" << RenderSqlLiteral(*row.group) << " "
        << HexBits(row.result.estimate) << " " << HexBits(row.result.ci.lo)
        << " " << HexBits(row.result.ci.hi) << "\n";
  }
  return out.str();
}

TEST(GoldenPipelineTest, EstimatesMatchCheckedInGoldenAtEveryThreadCount) {
  const std::string golden_path =
      std::string(PCLEAN_TEST_DATA_DIR) + "/golden/e2e_pipeline.golden";
  std::ifstream f(golden_path, std::ios::binary);
  ASSERT_TRUE(f) << "missing golden file " << golden_path
                 << "; expected content is:\n"
                 << RunPipeline(1);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  const std::string golden = buffer.str();

  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string got = RunPipeline(threads);
    EXPECT_EQ(got, golden)
        << "pipeline output diverged from " << golden_path
        << " — if the change is intentional, regenerate the golden file "
           "with the printed content";
  }
}

// Served determinism: the answer an analyst gets over a `pclean serve`
// session must be byte-identical to what a local `pclean query` prints
// for the same SQL over the same release — both ends render through
// RenderSqlResultText, and the session pool must not perturb a single
// bit of it at any pool size. Label `server` puts this under the
// sanitizer passes of scripts/verify.sh as well.
TEST(GoldenPipelineTest, ServedResultsAreByteIdenticalToLocalAtEveryPoolSize) {
  SyntheticOptions data_options;
  data_options.num_rows = 400;
  data_options.num_distinct = 20;
  data_options.zipf_skew = 1.5;
  Rng data_rng(777);
  Table dirty = *GenerateSynthetic(data_options, data_rng);
  GrrOptions grr_options;
  Rng grr_rng(4242);
  GrrOutput grr =
      *ApplyGrr(dirty, GrrParams::Uniform(0.25, 5.0), grr_options, grr_rng);
  const std::string dir = ::testing::TempDir() + "/pclean_golden_served";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(WriteRelease(grr, dir).ok());

  const double confidence = 0.9;
  const char* sqls[] = {
      "SELECT count(1) FROM r WHERE category = 'c0'",
      "SELECT sum(value) FROM r WHERE category IN ('c1', 'c2')",
      "SELECT avg(value) FROM r",
      "SELECT count(1) FROM r GROUP BY category ORDER BY count(1) DESC "
      "LIMIT 3",
  };
  // The local `pclean query` rendering of each result.
  PrivateTable local = *OpenRelease(dir);
  QueryOptions query_options;
  query_options.confidence = confidence;
  std::vector<std::string> expected;
  for (const char* sql : sqls) {
    SqlResultSet rs = *ExecuteSqlQuery(local, sql, query_options);
    std::ostringstream text;
    RenderSqlResultText(rs, /*direct=*/false, confidence, text);
    expected.push_back(text.str());
  }

  for (size_t pool : {1u, 2u, 8u}) {
    SCOPED_TRACE("pool_threads=" + std::to_string(pool));
    server::ServerOptions options;
    // Under /tmp, not the gtest temp dir: sun_path caps at ~107 bytes.
    options.socket_path = "/tmp/pcsrv_gold_" + std::to_string(::getpid()) +
                          "_" + std::to_string(pool) + ".sock";
    options.release_dirs = {dir};
    options.pool_threads = pool;
    auto srv = server::Server::Start(options);
    ASSERT_TRUE(srv.ok()) << srv.status().ToString();
    auto client = server::Client::Connect(options.socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (size_t i = 0; i < expected.size(); ++i) {
      auto reply = client->Query(sqls[i], /*direct=*/false, confidence);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(*reply, expected[i]) << "served bytes diverged from the "
                                        "local rendering for: "
                                     << sqls[i];
    }
    ASSERT_TRUE(client->Bye().ok());
    ASSERT_TRUE(srv->Drain().ok());
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace privateclean
