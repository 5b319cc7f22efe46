#include "tools/pclean_cli.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "common/random.h"
#include "datagen/synthetic.h"
#include "table/csv.h"

namespace privateclean {
namespace {

/// Every file of a release directory, by name.
std::map<std::string, std::string> ReleaseBytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "/pclean_cli_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
    csv_path_ = base_ + "/input.csv";
    release_dir_ = base_ + "/release";

    SyntheticOptions options;
    options.num_rows = 500;
    Rng rng(1);
    Table data = *GenerateSynthetic(options, rng);
    ASSERT_TRUE(WriteCsvFile(data, csv_path_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  int Run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return RunPcleanCli(args, out_, err_);
  }

  std::string base_, csv_path_, release_dir_;
  std::ostringstream out_, err_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("privatize"), std::string::npos);
  EXPECT_EQ(Run({}), 1);
  EXPECT_EQ(Run({"frobnicate"}), 1);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, PrivatizeWithEpsilonThenInfo) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--epsilon", "4.0", "--seed", "7"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("rows: 500"), std::string::npos);
  EXPECT_NE(out_.str().find("total epsilon: 4"), std::string::npos);

  ASSERT_EQ(Run({"info", "--release", release_dir_}), 0) << err_.str();
  EXPECT_NE(out_.str().find("category"), std::string::npos);
  EXPECT_NE(out_.str().find("value"), std::string::npos);
  EXPECT_NE(out_.str().find("total epsilon: 4"), std::string::npos);
}

TEST_F(CliTest, PrivatizeWithExplicitParams) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--p", "0.1", "--b", "5.0", "--seed", "7"}),
            0)
      << err_.str();
}

TEST_F(CliTest, PrivatizeWithCountErrorTarget) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--count-error", "0.1", "--seed", "7"}),
            0)
      << err_.str();
}

TEST_F(CliTest, PrivatizeRequiresAPrivacySpec) {
  EXPECT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_}),
            1);
  EXPECT_NE(err_.str().find("--epsilon"), std::string::npos);
}

TEST_F(CliTest, PrivatizeMissingInputFileFails) {
  EXPECT_EQ(Run({"privatize", "--input", base_ + "/nope.csv", "--output",
                 release_dir_, "--epsilon", "2"}),
            1);
  // A typed NotFound that names the path.
  EXPECT_NE(err_.str().find("Not found"), std::string::npos) << err_.str();
  EXPECT_NE(err_.str().find(base_ + "/nope.csv"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, PrivatizeSkipsUtf8ByteOrderMark) {
  // Spreadsheet "CSV UTF-8" exports start with EF BB BF; it must not
  // become part of the first attribute's name.
  const std::string bom_csv = base_ + "/bom.csv";
  {
    std::ofstream out(bom_csv, std::ios::binary);
    out << "\xEF\xBB\xBF" << "city,income\nA,1.5\nB,2\nA,3\n";
  }
  ASSERT_EQ(Run({"privatize", "--input", bom_csv, "--output", release_dir_,
                 "--epsilon", "1"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"query", "--release", release_dir_, "--sql",
                 "SELECT COUNT(1) FROM r WHERE city = 'A'"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("estimate:"), std::string::npos) << out_.str();
  const std::string exported = base_ + "/export.csv";
  ASSERT_EQ(Run({"export", "--release", release_dir_, "--output", exported}),
            0)
      << err_.str();
  std::ifstream in(exported);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "city,income");
}

/// A 6-row `city,x` CSV whose x cells are "1.5,4,2,3,5.5" with `cell`
/// inserted at row `at`.
std::string NonFiniteCsv(const std::string& cell, size_t at) {
  std::vector<std::string> xs = {"1.5", "4", "2", "3", "5.5"};
  xs.insert(xs.begin() + static_cast<std::ptrdiff_t>(at), cell);
  const char* cities[] = {"a", "b", "a", "c", "b", "a"};
  std::string csv = "city,x\n";
  for (size_t r = 0; r < xs.size(); ++r) {
    csv += std::string(cities[r]) + "," + xs[r] + "\n";
  }
  return csv;
}

TEST_F(CliTest, NanCellIsSkippedBySensitivityWhereverItSits) {
  // A NaN first in its shard used to become the shard's min and max
  // (an abort under --epsilon, a NaN ε under --p/--b); a NaN later in
  // the shard was skipped. Now every NaN is skipped like a NULL: Δ is
  // 5.5 − 1.5 = 4 either way.
  for (size_t at : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE("nan at row " + std::to_string(at));
    const std::string csv = base_ + "/nan.csv";
    std::ofstream(csv) << NonFiniteCsv("nan", at);
    const std::string eps_dir = base_ + "/eps" + std::to_string(at);
    ASSERT_EQ(Run({"privatize", "--input", csv, "--output", eps_dir,
                   "--epsilon", "2", "--seed", "7"}),
              0)
        << err_.str();
    ASSERT_EQ(Run({"info", "--release", eps_dir}), 0) << err_.str();
    EXPECT_NE(out_.str().find("b=4  sensitivity=4  epsilon=1\n"),
              std::string::npos)
        << out_.str();
    const std::string pb_dir = base_ + "/pb" + std::to_string(at);
    ASSERT_EQ(Run({"privatize", "--input", csv, "--output", pb_dir, "--p",
                   "0.3", "--b", "1", "--seed", "7"}),
              0)
        << err_.str();
    ASSERT_EQ(Run({"info", "--release", pb_dir}), 0) << err_.str();
    EXPECT_NE(out_.str().find("b=1  sensitivity=4  epsilon=4\n"),
              std::string::npos)
        << out_.str();
    EXPECT_EQ(out_.str().find("nan"), std::string::npos) << out_.str();
  }
}

TEST_F(CliTest, InfiniteCellIsInvalidArgumentNamingTheAttribute) {
  // An infinite Δ used to give b = inf and a NaN total ε.
  const std::string csv = base_ + "/inf.csv";
  std::ofstream(csv) << NonFiniteCsv("inf", 1);
  for (const std::vector<std::string>& spec :
       {std::vector<std::string>{"--epsilon", "2"},
        std::vector<std::string>{"--p", "0.3", "--b", "1"}}) {
    std::vector<std::string> args = {"privatize", "--input", csv, "--output",
                                     release_dir_};
    args.insert(args.end(), spec.begin(), spec.end());
    EXPECT_EQ(Run(args), 1);
    EXPECT_NE(err_.str().find("Invalid argument: attribute 'x'"),
              std::string::npos)
        << err_.str();
    EXPECT_FALSE(std::filesystem::exists(release_dir_));
  }
}

TEST_F(CliTest, QueryEndToEnd) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--p", "0.1", "--b", "5.0", "--seed", "7"}),
            0);
  ASSERT_EQ(Run({"query", "--release", release_dir_, "--sql",
                 "SELECT count(1) FROM r WHERE category = 'c0'"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("estimate:"), std::string::npos);
  EXPECT_NE(out_.str().find("CI:"), std::string::npos);
}

TEST_F(CliTest, QueryDirectBaseline) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--p", "0.1", "--b", "5.0", "--seed", "7"}),
            0);
  ASSERT_EQ(Run({"query", "--release", release_dir_, "--direct", "--sql",
                 "SELECT count(1) FROM r WHERE category = 'c0'"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("direct:"), std::string::npos);
}

TEST_F(CliTest, QueryWithReplaceRules) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--p", "0.1", "--b", "5.0", "--seed", "7"}),
            0);
  ASSERT_EQ(Run({"query", "--release", release_dir_, "--replace",
                 "category:c1=c0", "--replace", "category:c2=c0", "--sql",
                 "SELECT count(1) FROM r WHERE category = 'c0'"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("estimate:"), std::string::npos);
}

TEST_F(CliTest, QueryBadReplaceRuleFails) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--p", "0.1", "--b", "5.0", "--seed", "7"}),
            0);
  EXPECT_EQ(Run({"query", "--release", release_dir_, "--replace",
                 "malformed", "--sql", "SELECT count(1) FROM r"}),
            1);
  EXPECT_NE(err_.str().find("attr:from=to"), std::string::npos);
}

TEST_F(CliTest, QueryBadSqlFails) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--p", "0.1", "--b", "5.0", "--seed", "7"}),
            0);
  EXPECT_EQ(Run({"query", "--release", release_dir_, "--sql",
                 "SELECT nope(1) FROM r"}),
            1);
  EXPECT_NE(err_.str().find("SQL error"), std::string::npos);
}

TEST_F(CliTest, QueryBootstrapExtendedAggregate) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--p", "0.1", "--b", "5.0", "--seed", "7"}),
            0);
  ASSERT_EQ(Run({"query", "--release", release_dir_, "--bootstrap", "50",
                 "--seed", "13", "--sql", "SELECT median(value) FROM r"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("estimate:"), std::string::npos);
  EXPECT_NE(out_.str().find("bootstrap replicates: 50/50"),
            std::string::npos);
}

TEST_F(CliTest, QueryBootstrapRejectsTooFewReplicates) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--p", "0.1", "--b", "5.0", "--seed", "7"}),
            0);
  EXPECT_EQ(Run({"query", "--release", release_dir_, "--bootstrap", "5",
                 "--sql", "SELECT median(value) FROM r"}),
            1);
  EXPECT_NE(err_.str().find(">= 10"), std::string::npos);
}

TEST_F(CliTest, QueryBootstrapDeterministicGivenSeed) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--p", "0.1", "--b", "5.0", "--seed", "7"}),
            0);
  ASSERT_EQ(Run({"query", "--release", release_dir_, "--bootstrap", "40",
                 "--seed", "21", "--threads", "1", "--sql",
                 "SELECT percentile(value, 90) FROM r"}),
            0)
      << err_.str();
  std::string first = out_.str();
  ASSERT_EQ(Run({"query", "--release", release_dir_, "--bootstrap", "40",
                 "--seed", "21", "--threads", "4", "--sql",
                 "SELECT percentile(value, 90) FROM r"}),
            0)
      << err_.str();
  // Same bootstrap seed at a different thread count: identical output.
  EXPECT_EQ(first, out_.str());
}

TEST_F(CliTest, QueryMissingReleaseFails) {
  EXPECT_EQ(Run({"query", "--release", base_ + "/nope", "--sql",
                 "SELECT count(1) FROM r"}),
            1);
}

TEST_F(CliTest, FlagParsingErrors) {
  EXPECT_EQ(Run({"info", "positional"}), 1);
  EXPECT_NE(err_.str().find("--flag"), std::string::npos);
  EXPECT_EQ(Run({"info", "--release"}), 1);  // Missing value.
  EXPECT_EQ(Run({"info"}), 1);  // Missing required flag.
}

TEST_F(CliTest, UnknownFlagIsRejectedBeforeAnyIo) {
  // One misspelled flag per subcommand. Every path named here is missing,
  // so a failure that named anything but the flag would mean the
  // subcommand ran (and did I/O) before checking its flags.
  const std::string nope = base_ + "/nope";
  const std::vector<std::vector<std::string>> cases = {
      {"privatize", "--input", nope, "--output", nope, "--epsilon", "3",
       "--epsilom", "1"},
      {"privatize", "--input", nope, "--output", nope, "--epsilon", "3",
       "--beta", "0.5"},
      {"info", "--release", nope, "--verbose", "1"},
      {"verify", nope, "--strict", "1"},
      {"export", "--release", nope, "--output", nope, "--delimiter", ","},
      {"query", "--release", nope, "--sql", "SELECT count(1) FROM r",
       "--confidance", "0.5"},
      {"budget", "show", "--ledger", nope, "--tenat", "alice"},
      {"serve", nope, "--socket", nope + ".sock", "--pool-thread", "2"},
  };
  for (const std::vector<std::string>& args : cases) {
    const std::string& flag = args[args.size() - 2];
    EXPECT_EQ(Run(args), 1) << flag;
    EXPECT_NE(err_.str().find("unknown flag " + flag + " for pclean " +
                              args[0]),
              std::string::npos)
        << err_.str();
  }
  EXPECT_FALSE(std::filesystem::exists(nope));
}

TEST_F(CliTest, PrivatizeRejectsUnknownMechanism) {
  EXPECT_EQ(Run({"privatize", "--input", csv_path_, "--output", release_dir_,
                 "--epsilon", "3", "--mechanism", "sampling"}),
            1);
  EXPECT_NE(err_.str().find("unknown mechanism 'sampling'"),
            std::string::npos)
      << err_.str();
  EXPECT_NE(err_.str().find("grr, hlm"), std::string::npos) << err_.str();
  EXPECT_FALSE(std::filesystem::exists(release_dir_));
}

TEST_F(CliTest, FlagEqualsSyntax) {
  ASSERT_EQ(Run({"privatize", "--input=" + csv_path_,
                 "--output=" + release_dir_, "--epsilon=3.0",
                 "--seed=9"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("total epsilon: 3"), std::string::npos);
}

TEST_F(CliTest, VerifyReportsOkRelease) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--epsilon", "2.0", "--seed", "7"}),
            0);
  ASSERT_EQ(Run({"verify", release_dir_}), 0) << err_.str();
  EXPECT_NE(out_.str().find("format: v3"), std::string::npos);
  EXPECT_NE(out_.str().find("rows: 500"), std::string::npos);
  EXPECT_NE(out_.str().find("column_0.bin"), std::string::npos);
  EXPECT_NE(out_.str().find("verification: OK"), std::string::npos);
}

TEST_F(CliTest, VerifyAcceptsReleaseFlagForm) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--epsilon", "2.0", "--seed", "7"}),
            0);
  ASSERT_EQ(Run({"verify", "--release", release_dir_}), 0) << err_.str();
  EXPECT_NE(out_.str().find("verification: OK"), std::string::npos);
}

TEST_F(CliTest, VerifyDetectsCorruption) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--epsilon", "2.0", "--seed", "7"}),
            0);
  const std::string path = release_dir_ + "/column_0.bin";
  std::stringstream bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes << in.rdbuf();
  }
  std::string data = bytes.str();
  data[data.size() / 2] ^= 0x10;
  {
    std::ofstream fixed(path, std::ios::binary | std::ios::trunc);
    fixed << data;
  }
  EXPECT_EQ(Run({"verify", release_dir_}), 1);
  EXPECT_NE(err_.str().find("Data loss"), std::string::npos) << err_.str();
  EXPECT_NE(out_.str().find("column_0.bin"), std::string::npos);
}

TEST_F(CliTest, VerifyMissingReleaseFails) {
  EXPECT_EQ(Run({"verify", base_ + "/nope"}), 1);
  EXPECT_NE(err_.str().find("Not found"), std::string::npos) << err_.str();
}

TEST_F(CliTest, VerifyRequiresADirectory) {
  EXPECT_EQ(Run({"verify"}), 1);
}

TEST_F(CliTest, UsageMentionsVerify) {
  Run({"help"});
  EXPECT_NE(out_.str().find("verify"), std::string::npos);
}

TEST_F(CliTest, CsvSplitModesProduceIdenticalReleases) {
  // Ingest framing and cell typing are sharded; the release bytes must
  // not depend on the thread count.
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_ + "_t1", "--p", "0.2", "--b", "5.0", "--seed",
                 "42", "--threads", "1"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_ + "_t4", "--p", "0.2", "--b", "5.0", "--seed",
                 "42", "--threads", "4"}),
            0)
      << err_.str();
  EXPECT_EQ(ReleaseBytes(release_dir_ + "_t1"),
            ReleaseBytes(release_dir_ + "_t4"));
}

TEST_F(CliTest, BudgetGrantShowRelaxRoundTrip) {
  const std::string ledger = base_ + "/ledger";
  ASSERT_EQ(Run({"budget", "grant", "--ledger", ledger, "--tenant", "alice",
                 "--epsilon", "2.5"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("granted=2.5"), std::string::npos) << out_.str();
  ASSERT_EQ(Run({"budget", "relax", "--ledger", ledger, "--tenant", "alice",
                 "--epsilon", "0.5"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("granted=3"), std::string::npos) << out_.str();
  ASSERT_EQ(Run({"budget", "show", "--ledger", ledger}), 0) << err_.str();
  EXPECT_NE(out_.str().find("alice"), std::string::npos);
  EXPECT_NE(out_.str().find("remaining=3"), std::string::npos) << out_.str();
  // The ledger is durable: a fresh show (new process-equivalent open)
  // still sees the budget.
  ASSERT_EQ(Run({"budget", "show", "--ledger", ledger, "--tenant", "alice"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("granted=3"), std::string::npos);
}

TEST_F(CliTest, BudgetRejectsBadActionsAndUnknownTenants) {
  const std::string ledger = base_ + "/ledger";
  EXPECT_EQ(Run({"budget", "--ledger", ledger}), 1);
  EXPECT_NE(err_.str().find("grant, relax, or show"), std::string::npos)
      << err_.str();
  EXPECT_EQ(Run({"budget", "shrink", "--ledger", ledger}), 1);
  EXPECT_NE(err_.str().find("unknown budget action"), std::string::npos);
  EXPECT_EQ(Run({"budget", "show", "--ledger", ledger, "--tenant", "bob"}),
            1);
  EXPECT_NE(err_.str().find("Not found"), std::string::npos) << err_.str();
}

TEST_F(CliTest, QueryChargesTenantAndRejectsOverdraftBeforeExecution) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--epsilon", "4.0", "--seed", "7"}),
            0)
      << err_.str();
  const std::string ledger = base_ + "/ledger";
  // Per-attribute epsilon is ~2 of the total 4, so a grant of 3 admits
  // exactly one single-attribute query.
  ASSERT_EQ(Run({"budget", "grant", "--ledger", ledger, "--tenant", "alice",
                 "--epsilon", "3.0"}),
            0)
      << err_.str();
  const std::vector<std::string> query = {
      "query",    "--release", release_dir_,
      "--sql",    "SELECT COUNT(*) FROM r WHERE category = 'a'",
      "--ledger", ledger,      "--tenant",
      "alice"};
  ASSERT_EQ(Run(query), 0) << err_.str();
  EXPECT_NE(out_.str().find("charged epsilon"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("estimate:"), std::string::npos);

  // Second identical query overdrafts: typed rejection, no estimate —
  // the query never executed.
  EXPECT_EQ(Run(query), 1);
  EXPECT_NE(err_.str().find("Resource exhausted"), std::string::npos)
      << err_.str();
  EXPECT_NE(err_.str().find("alice"), std::string::npos);
  EXPECT_EQ(out_.str().find("estimate:"), std::string::npos) << out_.str();

  // A relax tops the tenant back up and the same query is admitted.
  ASSERT_EQ(Run({"budget", "relax", "--ledger", ledger, "--tenant", "alice",
                 "--epsilon", "2.0"}),
            0)
      << err_.str();
  EXPECT_EQ(Run(query), 0) << err_.str();
}

TEST_F(CliTest, QueryWithUnknownRelationIsRejectedWithoutCharge) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--epsilon", "4.0", "--seed", "7"}),
            0)
      << err_.str();
  const std::string ledger = base_ + "/ledger";
  ASSERT_EQ(Run({"budget", "grant", "--ledger", ledger, "--tenant", "alice",
                 "--epsilon", "3.0"}),
            0);
  EXPECT_EQ(Run({"query", "--release", release_dir_, "--sql",
                 "SELECT COUNT(*) FROM wrong WHERE category = 'a'",
                 "--ledger", ledger, "--tenant", "alice"}),
            1);
  EXPECT_NE(err_.str().find("unknown relation 'wrong'"), std::string::npos)
      << err_.str();
  EXPECT_NE(err_.str().find("relation 'r'"), std::string::npos);
  // Nothing was charged for the rejected query.
  ASSERT_EQ(Run({"budget", "show", "--ledger", ledger, "--tenant", "alice"}),
            0);
  EXPECT_NE(out_.str().find("spent=0"), std::string::npos) << out_.str();
}

TEST_F(CliTest, QueryLedgerAndTenantGoTogether) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--epsilon", "4.0", "--seed", "7"}),
            0);
  EXPECT_EQ(Run({"query", "--release", release_dir_, "--sql",
                 "SELECT COUNT(*) FROM r", "--tenant", "alice"}),
            1);
  EXPECT_NE(err_.str().find("--ledger and --tenant go together"),
            std::string::npos)
      << err_.str();
}

TEST_F(CliTest, QueryConnectRejectsServerOwnedFlags) {
  // With --connect the server owns the table, the ledger, and the
  // threading; every execution-owning flag must be refused up front, not
  // silently ignored.
  for (const char* banned : {"--ledger", "--replace", "--bootstrap",
                             "--seed", "--threads"}) {
    EXPECT_EQ(Run({"query", "--connect", "/tmp/nowhere.sock", "--sql",
                   "SELECT count(1) FROM r", banned, "x"}),
              1)
        << banned;
    EXPECT_NE(err_.str().find("does not apply with --connect"),
              std::string::npos)
        << banned << ": " << err_.str();
  }
}

TEST_F(CliTest, QueryConnectToMissingServerIsTyped) {
  EXPECT_EQ(Run({"query", "--connect", "/tmp/pclean_no_such.sock", "--sql",
                 "SELECT count(1) FROM r"}),
            1);
  EXPECT_NE(err_.str().find("no server at"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, ServeArgumentValidation) {
  EXPECT_EQ(Run({"serve", "--socket", "/tmp/pclean_sv.sock"}), 1);
  EXPECT_NE(err_.str().find("at least one release directory"),
            std::string::npos)
      << err_.str();
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--epsilon", "4.0", "--seed", "7"}),
            0);
  EXPECT_EQ(Run({"serve", release_dir_, "--socket", "/tmp/pclean_sv.sock",
                 "--serve-for-ms", "0"}),
            1);
  EXPECT_NE(err_.str().find("--serve-for-ms must be > 0"),
            std::string::npos)
      << err_.str();
}

TEST_F(CliTest, ServeAndConnectRoundTripMatchesLocalBytes) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--epsilon", "4.0", "--seed", "7"}),
            0);
  // Socket directly under /tmp: sun_path caps at ~107 bytes and the
  // gtest temp path is long.
  const std::string socket_path =
      "/tmp/pcsrv_cli_" + std::to_string(::getpid()) + ".sock";
  ::unlink(socket_path.c_str());
  std::ostringstream serve_out, serve_err;
  int serve_rc = -1;
  std::thread server([&] {
    serve_rc = RunPcleanCli({"serve", release_dir_, "--socket", socket_path,
                             "--serve-for-ms", "30000"},
                            serve_out, serve_err);
  });
  struct stat st;
  for (int i = 0; i < 300 && ::stat(socket_path.c_str(), &st) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(::stat(socket_path.c_str(), &st), 0) << serve_err.str();

  const std::string sql = "SELECT count(1) FROM r WHERE category = 'c0'";
  ASSERT_EQ(Run({"query", "--connect", socket_path, "--sql", sql,
                 "--confidence", "0.9"}),
            0)
      << err_.str();
  const std::string served = out_.str();
  ASSERT_EQ(Run({"query", "--release", release_dir_, "--sql", sql,
                 "--confidence", "0.9"}),
            0)
      << err_.str();
  EXPECT_EQ(served, out_.str())
      << "served bytes diverged from the local rendering";

  // The serve loop installed its signal handlers before the socket-file
  // wait above could finish; SIGTERM asks it to drain now rather than at
  // the --serve-for-ms bound.
  ::raise(SIGTERM);
  server.join();
  EXPECT_EQ(serve_rc, 0) << serve_err.str();
  EXPECT_NE(serve_out.str().find("drained: 1 sessions, 1 queries"),
            std::string::npos)
      << serve_out.str();
}

TEST_F(CliTest, UsageMentionsServe) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("pclean serve"), std::string::npos);
  EXPECT_NE(out_.str().find("--connect"), std::string::npos);
  EXPECT_NE(out_.str().find("--socket"), std::string::npos);
}

TEST_F(CliTest, UsageMentionsBudget) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("budget grant"), std::string::npos);
  EXPECT_NE(out_.str().find("--tenant"), std::string::npos);
}

TEST_F(CliTest, DeterministicGivenSeed) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_ + "_a", "--p", "0.2", "--b", "5.0", "--seed",
                 "42"}),
            0);
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_ + "_b", "--p", "0.2", "--b", "5.0", "--seed",
                 "42"}),
            0);
  EXPECT_EQ(ReleaseBytes(release_dir_ + "_a"),
            ReleaseBytes(release_dir_ + "_b"));
}

TEST_F(CliTest, ExportWritesTheRelationAsCsv) {
  ASSERT_EQ(Run({"privatize", "--input", csv_path_, "--output",
                 release_dir_, "--p", "0.2", "--b", "5.0", "--seed", "42"}),
            0)
      << err_.str();
  const std::string csv = base_ + "/export.csv";
  ASSERT_EQ(Run({"export", "--release", release_dir_, "--output", csv}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("exported 500 rows"), std::string::npos);
  // The relation as CSV: the header row, then one line per row.
  std::ifstream in(csv);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "category,value");
  size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, 500u);
  EXPECT_EQ(Run({"export", "--release", base_ + "/nope", "--output", csv}), 1);
  EXPECT_NE(err_.str().find("Not found"), std::string::npos) << err_.str();
}

}  // namespace
}  // namespace privateclean
