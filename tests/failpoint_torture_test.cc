// Failpoint torture: every catalogued injection site is fired one at a
// time — and in randomized combinations — against the release write,
// overwrite, and read paths. The durability contract under ANY injected
// fault: each operation either succeeds or fails with a typed Status,
// and a successful read always returns the exact written relation.
// Crashes and silently-wrong data are the only failures.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/release.h"
#include "privacy/ledger.h"
#include "query/predicate.h"
#include "server/client.h"
#include "server/server.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

/// The closed set of codes a release operation may fail with; anything
/// else (or a crash) breaks the durability contract.
bool IsTypedReleaseError(const Status& st) {
  return st.IsDataLoss() || st.IsNotFound() || st.IsIOError() ||
         st.IsFailedPrecondition() || st.IsAlreadyExists();
}

GrrOutput MakeGrr(uint64_t seed, size_t rows) {
  Schema s = *Schema::Make(
      {Field::Discrete("city"),
       Field{"grade", ValueType::kInt64, AttributeKind::kDiscrete},
       Field::Numerical("income", ValueType::kDouble)});
  TableBuilder b(s);
  const char* cities[] = {"Berkeley", "Chicago, IL", "Qui\"to", "Oslo"};
  for (size_t i = 0; i < rows; ++i) {
    Value city = (i % 13 == 0) ? Value::Null()
                               : Value(cities[i % 4]);
    b.Row({city, Value(static_cast<int64_t>(i % 6)),
           Value(static_cast<double>(i % 9))});
  }
  Table t = *b.Finish();
  Rng rng(seed);
  return *ApplyGrr(t, GrrParams::Uniform(0.25, 1.2), GrrOptions{}, rng);
}

bool TablesEqual(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema()) || a.num_rows() != b.num_rows()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (!(a.column(c).ValueAt(r) == b.column(c).ValueAt(r))) return false;
    }
  }
  return true;
}

class FailpointTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(failpoint::CompiledIn())
        << "torture requires -DPCLEAN_FAILPOINTS=ON";
    failpoint::DeactivateAll();
    base_ = ::testing::TempDir() + "/pclean_torture_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }
  void TearDown() override {
    failpoint::DeactivateAll();
    std::filesystem::remove_all(base_);
  }

  std::string base_;
};

TEST_F(FailpointTortureTest, EverySiteOneAtATimeOnFreshWrite) {
  GrrOutput grr = MakeGrr(11, 120);
  int site_index = 0;
  for (const std::string& site : failpoint::Sites()) {
    SCOPED_TRACE("site " + site);
    const std::string dir = base_ + "/w" + std::to_string(site_index++);
    ASSERT_TRUE(
        failpoint::Activate(site, failpoint::DefaultFault(site)).ok());
    Status write = WriteRelease(grr, dir);
    failpoint::DeactivateAll();
    if (!write.ok()) {
      EXPECT_TRUE(IsTypedReleaseError(write)) << write.ToString();
      // The failed write must not have published a half-written release:
      // a subsequent read is a typed error or a fully intact release
      // (e.g. the fault hit only the post-commit directory sync).
      auto read = ReadRelease(dir);
      if (read.ok()) {
        EXPECT_TRUE(TablesEqual(read->relation, grr.table));
      } else {
        EXPECT_TRUE(IsTypedReleaseError(read.status()))
            << read.status().ToString();
      }
    } else {
      // The write reported success. If the fault silently damaged the
      // bytes (short write), the checksummed read must catch it — an OK
      // read with wrong data is the one unacceptable outcome.
      auto read = ReadRelease(dir);
      if (read.ok()) {
        EXPECT_TRUE(TablesEqual(read->relation, grr.table));
      } else {
        EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
      }
    }
  }
}

TEST_F(FailpointTortureTest, EverySiteOneAtATimeOnOverwrite) {
  // Old (150 rows) and new (200 rows) releases are distinguishable by
  // size; after a faulted overwrite the directory must hold exactly one
  // of them intact — or read as a typed error — never a blend.
  GrrOutput old_grr = MakeGrr(21, 150);
  GrrOutput new_grr = MakeGrr(22, 200);
  int site_index = 0;
  for (const std::string& site : failpoint::Sites()) {
    SCOPED_TRACE("site " + site);
    const std::string dir = base_ + "/o" + std::to_string(site_index++);
    ASSERT_TRUE(WriteRelease(old_grr, dir).ok());
    ASSERT_TRUE(
        failpoint::Activate(site, failpoint::DefaultFault(site)).ok());
    Status write = WriteRelease(new_grr, dir);
    failpoint::DeactivateAll();
    EXPECT_TRUE(write.ok() || IsTypedReleaseError(write))
        << write.ToString();
    auto read = ReadRelease(dir);
    if (read.ok()) {
      EXPECT_TRUE(TablesEqual(read->relation, old_grr.table) ||
                  TablesEqual(read->relation, new_grr.table))
          << "overwrite under '" << site
          << "' left a relation that matches neither the old nor the "
             "new release";
    } else {
      EXPECT_TRUE(IsTypedReleaseError(read.status()))
          << read.status().ToString();
    }
  }
}

TEST_F(FailpointTortureTest, EverySiteOneAtATimeOnRead) {
  GrrOutput grr = MakeGrr(31, 130);
  const std::string dir = base_ + "/r";
  ASSERT_TRUE(WriteRelease(grr, dir).ok());
  for (const std::string& site : failpoint::Sites()) {
    SCOPED_TRACE("site " + site);
    ASSERT_TRUE(
        failpoint::Activate(site, failpoint::DefaultFault(site)).ok());
    auto read = ReadRelease(dir);
    failpoint::DeactivateAll();
    if (read.ok()) {
      EXPECT_TRUE(TablesEqual(read->relation, grr.table));
    } else {
      EXPECT_TRUE(IsTypedReleaseError(read.status()))
          << read.status().ToString();
    }
    // The release on disk is untouched by read faults: a clean read
    // must still verify.
    auto clean = ReadRelease(dir);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_TRUE(TablesEqual(clean->relation, grr.table));
  }
}

TEST_F(FailpointTortureTest, TransientReadFaultsAreRetriedToSuccess) {
  GrrOutput grr = MakeGrr(41, 90);
  const std::string dir = base_ + "/retry";
  ASSERT_TRUE(WriteRelease(grr, dir).ok());
  // Two failures per read attempt budget of four: every file read
  // inside ReadRelease must recover via the retry loop.
  failpoint::Fault fault;
  fault.remaining = 2;
  ASSERT_TRUE(failpoint::Activate("io.read.transient", fault).ok());
  auto read = ReadRelease(dir);
  failpoint::DeactivateAll();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(TablesEqual(read->relation, grr.table));
}

TEST_F(FailpointTortureTest, RandomizedFaultCombinations) {
  GrrOutput grr = MakeGrr(51, 110);
  Rng rng(0xF417);
  const auto& sites = failpoint::Sites();
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string dir = base_ + "/c" + std::to_string(trial);
    // 1-3 distinct sites, each firing a bounded number of times so some
    // trials fail early, some mid-commit, and some recover entirely.
    size_t picks = 1 + rng.UniformInt(3);
    for (size_t i = 0; i < picks; ++i) {
      const std::string& site = sites[rng.UniformInt(sites.size())];
      failpoint::Fault fault = failpoint::DefaultFault(site);
      fault.remaining = 1 + static_cast<int>(rng.UniformInt(3));
      ASSERT_TRUE(failpoint::Activate(site, fault).ok());
    }
    Status write = WriteRelease(grr, dir);
    EXPECT_TRUE(write.ok() || IsTypedReleaseError(write))
        << write.ToString();
    // Read with the surviving faults still active, then clean.
    auto faulted_read = ReadRelease(dir);
    if (faulted_read.ok()) {
      EXPECT_TRUE(TablesEqual(faulted_read->relation, grr.table));
    } else {
      EXPECT_TRUE(IsTypedReleaseError(faulted_read.status()))
          << faulted_read.status().ToString();
    }
    failpoint::DeactivateAll();
    auto read = ReadRelease(dir);
    if (read.ok()) {
      EXPECT_TRUE(TablesEqual(read->relation, grr.table));
    } else {
      EXPECT_TRUE(IsTypedReleaseError(read.status()))
          << read.status().ToString();
    }
  }
}

TEST_F(FailpointTortureTest, EverySiteOneAtATimeOnOpenAndQuery) {
  // The query/provenance read-path sites: open the release into a
  // PrivateTable and run a Count (which lazily builds the provenance
  // graph and reads its counts) and a Sum (which scans with the
  // predicate) under each catalogued fault. Every outcome must be a
  // typed error or a successful, sane estimate.
  GrrOutput grr = MakeGrr(71, 100);
  const std::string dir = base_ + "/q";
  ASSERT_TRUE(WriteRelease(grr, dir).ok());
  const Predicate pred = Predicate::In("city", {Value("Berkeley")});
  for (const std::string& site : failpoint::Sites()) {
    SCOPED_TRACE("site " + site);
    ASSERT_TRUE(
        failpoint::Activate(site, failpoint::DefaultFault(site)).ok());
    auto table = OpenRelease(dir);
    if (!table.ok()) {
      failpoint::DeactivateAll();
      EXPECT_TRUE(IsTypedReleaseError(table.status()))
          << table.status().ToString();
      continue;
    }
    auto count = table->Count(pred);
    auto sum = table->Sum("income", pred);
    failpoint::DeactivateAll();
    for (const auto* answer : {&count, &sum}) {
      if (answer->ok()) {
        EXPECT_TRUE(std::isfinite((*answer)->estimate)) << (*answer)->estimate;
      } else {
        EXPECT_TRUE(IsTypedReleaseError(answer->status()) ||
                    answer->status().IsInvalidArgument())
            << answer->status().ToString();
      }
    }
    // Faults never corrupt in-process state: the same open + query with
    // the registry clean must succeed.
    auto clean_table = OpenRelease(dir);
    ASSERT_TRUE(clean_table.ok()) << clean_table.status().ToString();
    auto clean_count = clean_table->Count(pred);
    ASSERT_TRUE(clean_count.ok()) << clean_count.status().ToString();
    EXPECT_TRUE(std::isfinite(clean_count->estimate));
    auto clean_sum = clean_table->Sum("income", pred);
    ASSERT_TRUE(clean_sum.ok()) << clean_sum.status().ToString();
    EXPECT_TRUE(std::isfinite(clean_sum->estimate));
  }
}

TEST_F(FailpointTortureTest, EveryCataloguedSiteSitsOnAnExercisedPath) {
  // A site that never counts a hit during a full write + overwrite +
  // read + open + query + verify cycle is dead instrumentation — the
  // torture above would silently stop covering it.
  GrrOutput grr = MakeGrr(61, 80);
  const std::string dir = base_ + "/cov";
  failpoint::ResetHits();
  ASSERT_TRUE(WriteRelease(grr, dir).ok());
  ASSERT_TRUE(WriteRelease(grr, dir).ok());  // swap path
  ASSERT_TRUE(ReadRelease(dir).ok());
  // Open + Count + Sum covers the analyst read path:
  // release.open.relation, the lazy provenance.graph.build, and
  // query.scan.begin (a COUNT reads the graph's counts; a SUM builds the
  // per-value sums).
  auto table = OpenRelease(dir);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const Predicate berkeley = Predicate::In("city", {Value("Berkeley")});
  ASSERT_TRUE(table->Count(berkeley).ok());
  ASSERT_TRUE(table->Sum("income", berkeley).ok());
  ASSERT_TRUE(VerifyRelease(dir).ok());
  // Ledger cycle: open + mutate (WAL commit sites) + checkpoint +
  // reopen over an existing WAL (recovery sites).
  const std::string ledger_dir = base_ + "/cov_ledger";
  {
    auto ledger = BudgetLedger::Open(ledger_dir);
    ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
    ASSERT_TRUE(ledger->Grant("alice", 2.0).ok());
    ASSERT_TRUE(ledger->Charge("alice", 0.5).ok());
    ASSERT_TRUE(ledger->Checkpoint().ok());
    ASSERT_TRUE(ledger->Grant("bob", 1.0).ok());  // leave a live WAL frame
  }
  ASSERT_TRUE(BudgetLedger::Open(ledger_dir).ok());
  // Serve cycle: accept one session (server.accept), exchange
  // HELLO/WELCOME frames (the shared WriteFrame/FrameReader code hits
  // server.frame.write.short and both read sites on each end), then
  // drain (server.drain). The socket lives directly under /tmp — gtest
  // temp paths can exceed sun_path's ~107-byte cap.
  {
    server::ServerOptions options;
    options.socket_path =
        "/tmp/pcsrv_cov_" + std::to_string(::getpid()) + ".sock";
    options.release_dirs = {dir};
    auto srv = server::Server::Start(options);
    ASSERT_TRUE(srv.ok()) << srv.status().ToString();
    auto client = server::Client::Connect(options.socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->Bye().ok());
    ASSERT_TRUE(srv->Drain().ok());
  }
  for (const std::string& site : failpoint::Sites()) {
    EXPECT_GT(failpoint::Hits(site), 0u)
        << "site '" << site
        << "' was never reached by write/overwrite/read/open/query/verify"
           "/ledger/serve";
  }
}

}  // namespace
}  // namespace privateclean
