#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/admission.h"
#include "core/release.h"
#include "core/sql_execution.h"
#include "datagen/synthetic.h"
#include "privacy/grr.h"
#include "privacy/ledger.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "table/table_builder.h"

// Concurrency torture for `pclean serve` (ctest labels: server,
// failpoint). The claims under test:
//
//  - N threads × M sessions of mixed traffic — admissible queries,
//    overdrafts, malformed SQL — each get their own typed answer, and
//    sessions never bleed into each other;
//  - concurrent charges by one tenant never jointly overdraft and never
//    double-admit: with budget for exactly K queries, exactly K of many
//    racing attempts succeed;
//  - a RESULT on the wire implies the charge was durable first: after a
//    hard kill (SIGKILL) mid-traffic, the recovered ledger satisfies
//    acknowledged·cost <= spent <= attempted·cost;
//  - a framing fault (bit flip on a received payload) kills exactly the
//    session it hit, with a typed DataLoss, and nobody else;
//  - drain answers what is buffered, says GOODBYE, and unlinks the
//    socket; idle sessions — also those that drip bytes without ever
//    finishing a frame — are timed out with a GOODBYE of their own;
//  - open sessions add no threads: one reactor reads every socket;
//  - sessions racing their first SUM/AVG or two-attribute COUNT on a
//    fresh server only read the caches warmed at release open, and
//    answer byte-identically to a local query.

namespace privateclean {
namespace {

using server::Client;
using server::Frame;
using server::FrameReader;
using server::FrameType;
using server::QueryRequest;
using server::Server;
using server::ServerOptions;

constexpr char kChargedSql[] =
    "SELECT count(1) FROM r WHERE category = 'c1'";
constexpr char kFreeSql[] = "SELECT count(1) FROM r";
constexpr char kMalformedSql[] = "SELECT nope(";
constexpr char kUnknownAttrSql[] =
    "SELECT count(1) FROM r WHERE ghost = 'x'";

class ServerTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    base_ = ::testing::TempDir() + "/pclean_server_" + name;
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
    release_dir_ = base_ + "/release";
    ledger_dir_ = base_ + "/ledger";

    SyntheticOptions options;
    options.num_rows = 300;
    options.num_distinct = 10;
    Rng data_rng(11);
    Table dirty = *GenerateSynthetic(options, data_rng);
    GrrOptions grr_options;
    Rng grr_rng(22);
    GrrOutput grr =
        *ApplyGrr(dirty, GrrParams::Uniform(0.25, 4.0), grr_options, grr_rng);
    ASSERT_TRUE(WriteRelease(grr, release_dir_).ok());
  }

  void TearDown() override {
    failpoint::DeactivateAll();
    std::filesystem::remove_all(base_);
    for (const std::string& path : sockets_) {
      ::unlink(path.c_str());
      ::unlink((path + ".lock").c_str());
    }
  }

  /// Socket paths live directly under /tmp: sun_path caps at ~107 bytes
  /// and gtest temp dirs plus long test names can blow past it.
  std::string NewSocketPath() {
    std::string path = "/tmp/pcsrv_" + std::to_string(::getpid()) + "_" +
                       std::to_string(sockets_.size()) + ".sock";
    sockets_.push_back(path);
    ::unlink(path.c_str());
    return path;
  }

  ServerOptions BaseOptions(const std::string& socket_path,
                            bool with_ledger) {
    ServerOptions options;
    options.socket_path = socket_path;
    options.release_dirs = {release_dir_};
    if (with_ledger) options.ledger_dir = ledger_dir_;
    options.pool_threads = 4;
    return options;
  }

  void Grant(const std::string& tenant, double epsilon) {
    BudgetLedger ledger = *BudgetLedger::Open(ledger_dir_);
    ASSERT_TRUE(ledger.Grant(tenant, epsilon).ok());
  }

  /// The ε price of kChargedSql, measured by admitting it once for a
  /// throwaway tenant (the probe's charge stays in the ledger; every
  /// assertion below uses tenants of its own).
  double ChargedCost() {
    BudgetLedger ledger = *BudgetLedger::Open(ledger_dir_);
    EXPECT_TRUE(ledger.Grant("__cost_probe", 1000.0).ok());
    PrivateTable table = *OpenRelease(release_dir_);
    AdmissionTicket ticket =
        *AdmitSqlQuery(ledger, "__cost_probe", table, kChargedSql);
    EXPECT_GT(ticket.cost, 0.0);
    return ticket.cost;
  }

  double Spent(const std::string& tenant) {
    BudgetLedger ledger = *BudgetLedger::Open(ledger_dir_);
    return ledger.BudgetOrZero(tenant).spent;
  }

  /// Raw connection for protocol-level tests (malformed bytes,
  /// pipelining) where the polite Client would get in the way.
  int RawConnect(const std::string& socket_path) {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.data(), socket_path.size());
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0)
        << std::strerror(errno);
    return fd;
  }

  void RawSend(int fd, const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<size_t>(n);
    }
  }

  void RawHello(int fd, FrameReader& reader, const std::string& tenant = "",
                const std::string& release = "") {
    server::HelloRequest hello;
    hello.tenant = tenant;
    hello.release = release;
    RawSend(fd, EncodeFrame(Frame{FrameType::kHello, RenderHello(hello)}));
    auto welcome = reader.Read(10000);
    ASSERT_TRUE(welcome.ok()) << welcome.status().ToString();
    ASSERT_TRUE(welcome->has_value());
    ASSERT_EQ((*welcome)->type, FrameType::kWelcome);
  }

  std::string base_, release_dir_, ledger_dir_;
  std::vector<std::string> sockets_;
};

TEST_F(ServerTortureTest, MixedTrafficAcrossManySessionsStaysTyped) {
  const double cost = ChargedCost();
  Grant("rich", 1e6);
  // Budget for exactly one charged query (plus margin against float
  // dust): of all the racing "poor" attempts below, exactly one may win.
  Grant("poor", 1.5 * cost);

  std::atomic<int> rich_charged{0};
  std::atomic<int> poor_admitted{0};
  std::atomic<int> poor_overdrafted{0};
  std::atomic<int> results_seen{0};
  std::atomic<int> failures{0};
  uint64_t served = 0;
  {
    Server srv = *Server::Start(BaseOptions(NewSocketPath(), true));
    auto rich_worker = [&] {
      for (int session = 0; session < 3; ++session) {
        auto client = Client::Connect(srv.socket_path(), "rich");
        if (!client.ok()) {
          ++failures;
          return;
        }
        // One session, five queries, four outcome types: the point is
        // that each reply is typed for ITS request, interleaved with
        // every other session's traffic.
        auto ok1 = client->Query(kChargedSql);
        if (ok1.ok() && ok1->find("charged epsilon") != std::string::npos) {
          ++rich_charged;
          ++results_seen;
        } else {
          ++failures;
        }
        auto bad = client->Query(kMalformedSql);
        if (!bad.ok() && bad.status().IsInvalidArgument()) {
        } else {
          ++failures;
        }
        auto ghost = client->Query(kUnknownAttrSql);
        if (!ghost.ok() && ghost.status().IsNotFound()) {
        } else {
          ++failures;
        }
        auto direct = client->Query(kFreeSql, /*direct=*/true);
        if (direct.ok() && direct->find("direct: ") != std::string::npos) {
          ++results_seen;
        } else {
          ++failures;
        }
        auto ok2 = client->Query(kChargedSql);
        if (ok2.ok()) {
          ++rich_charged;
          ++results_seen;
        } else {
          ++failures;
        }
        (void)client->Bye();
      }
    };
    auto poor_worker = [&] {
      for (int session = 0; session < 3; ++session) {
        auto client = Client::Connect(srv.socket_path(), "poor");
        if (!client.ok()) {
          ++failures;
          return;
        }
        for (int attempt = 0; attempt < 2; ++attempt) {
          auto reply = client->Query(kChargedSql);
          if (reply.ok()) {
            ++poor_admitted;
            ++results_seen;
          } else if (reply.status().IsResourceExhausted()) {
            ++poor_overdrafted;
          } else {
            ++failures;
          }
        }
        (void)client->Bye();
      }
    };
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) threads.emplace_back(rich_worker);
    for (int i = 0; i < 2; ++i) threads.emplace_back(poor_worker);
    for (auto& t : threads) t.join();
    served = srv.queries_served();
    ASSERT_TRUE(srv.Drain().ok());
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(rich_charged.load(), 4 * 3 * 2);
  // The no-double-admit claim, cross-session: one budget, one winner.
  EXPECT_EQ(poor_admitted.load(), 1);
  EXPECT_EQ(poor_overdrafted.load(), 2 * 3 * 2 - 1);
  EXPECT_EQ(served, static_cast<uint64_t>(results_seen.load()));
  EXPECT_NEAR(Spent("rich"), rich_charged.load() * cost, 1e-6);
  EXPECT_NEAR(Spent("poor"), cost, 1e-9);
}

TEST_F(ServerTortureTest, ConcurrentSameTenantChargesAdmitExactlyK) {
  const double cost = ChargedCost();
  constexpr int kAdmissible = 5;
  Grant("team", (kAdmissible + 0.5) * cost);

  std::atomic<int> admitted{0};
  std::atomic<int> rejected{0};
  std::atomic<int> failures{0};
  {
    Server srv = *Server::Start(BaseOptions(NewSocketPath(), true));
    std::vector<std::thread> threads;
    for (int i = 0; i < 8; ++i) {
      threads.emplace_back([&] {
        auto client = Client::Connect(srv.socket_path(), "team");
        if (!client.ok()) {
          ++failures;
          return;
        }
        for (int attempt = 0; attempt < 3; ++attempt) {
          auto reply = client->Query(kChargedSql);
          if (reply.ok()) {
            ++admitted;
          } else if (reply.status().IsResourceExhausted()) {
            ++rejected;
          } else {
            ++failures;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_TRUE(srv.Drain().ok());
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(admitted.load(), kAdmissible);
  EXPECT_EQ(rejected.load(), 8 * 3 - kAdmissible);
  EXPECT_NEAR(Spent("team"), kAdmissible * cost, 1e-6);
}

TEST_F(ServerTortureTest, FirstSumAndAvgRacingOnAFreshServerMatchLocal) {
  // SUM/AVG read the numeric column's moments and the per-value exact
  // sums of the predicate's attribute from the shared table's caches. On
  // a freshly started server no query has run, so sessions whose first
  // SUM/AVG arrives at the same moment must find those caches warmed at
  // release open, never fill them themselves (the TSan pass of the
  // `server` label checks this), and each must print exactly what a
  // local query prints.
  const std::vector<std::string> sqls = {
      "SELECT sum(value) FROM r WHERE category = 'c1'",
      "SELECT avg(value) FROM r WHERE category = 'c2'",
      "SELECT sum(value) FROM r WHERE category IN ('c3', 'c4')",
      "SELECT avg(value) FROM r WHERE NOT category = 'c0'",
  };
  PrivateTable local = *OpenRelease(release_dir_);
  std::vector<std::string> expected;
  for (const std::string& sql : sqls) {
    SqlResultSet rs = *ExecuteSqlQuery(local, sql);
    std::ostringstream text;
    RenderSqlResultText(rs, /*direct=*/false, QueryOptions().confidence,
                        text);
    expected.push_back(text.str());
  }

  constexpr size_t kSessions = 8;
  std::vector<Result<std::string>> replies(kSessions,
                                           Status::Internal("not run"));
  {
    Server srv = *Server::Start(BaseOptions(NewSocketPath(), false));
    std::latch connected(kSessions);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        auto client = Client::Connect(srv.socket_path());
        connected.arrive_and_wait();
        if (!client.ok()) {
          replies[i] = client.status();
          return;
        }
        replies[i] = client->Query(sqls[i % sqls.size()]);
        (void)client->Bye();
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_TRUE(srv.Drain().ok());
  }
  for (size_t i = 0; i < kSessions; ++i) {
    SCOPED_TRACE("session " + std::to_string(i) + ": " +
                 sqls[i % sqls.size()]);
    ASSERT_TRUE(replies[i].ok()) << replies[i].status().ToString();
    EXPECT_EQ(*replies[i], expected[i % sqls.size()]);
  }
}

TEST_F(ServerTortureTest, TwoAttributeCountsRacingOnAFreshServerMatchLocal) {
  // A corrected two-attribute COUNT and a Direct conjunct read the row
  // index of each discrete side from the shared table's cache. On a fresh
  // server whose release has two discrete attributes, sessions whose
  // first such query arrives at the same moment must find the indexes
  // warmed at release open, never build them themselves (the TSan pass of
  // the `server` label checks this), and each must print exactly what a
  // local query prints.
  TableBuilder b(*Schema::Make(
      {Field::Discrete("category"), Field::Discrete("zone"),
       Field::Numerical("value", ValueType::kDouble)}));
  for (size_t r = 0; r < 3000; ++r) {
    b.Row({r % 11 == 0 ? Value::Null() : Value("c" + std::to_string(r % 5)),
           Value("z" + std::to_string(r % 4)),
           Value(0.5 * static_cast<double>(r % 400))});
  }
  Rng grr_rng(6);
  GrrOutput grr = *ApplyGrr(*b.Finish(), GrrParams::Uniform(0.25, 4.0),
                            GrrOptions{}, grr_rng);
  const std::string dir = base_ + "/two_discrete";
  ASSERT_TRUE(WriteRelease(grr, dir).ok());
  const struct {
    const char* sql;
    bool direct;
  } queries[] = {
      {"SELECT count(1) FROM r WHERE category = 'c1' AND zone = 'z2'", false},
      {"SELECT count(1) FROM r WHERE value >= 20 AND value < 120 AND "
       "zone = 'z1'",
       true},
      {"SELECT count(1) FROM r WHERE category IN ('c0', 'c3') AND "
       "NOT zone = 'z0'",
       false},
      {"SELECT count(1) FROM r WHERE category IS NULL AND zone = 'z3'", true},
  };
  PrivateTable local = *OpenRelease(dir);
  std::vector<std::string> expected;
  for (const auto& q : queries) {
    SqlResultSet rs = q.direct ? *ExecuteSqlQueryDirect(local, q.sql)
                               : *ExecuteSqlQuery(local, q.sql);
    std::ostringstream text;
    RenderSqlResultText(rs, q.direct, QueryOptions().confidence, text);
    expected.push_back(text.str());
  }

  constexpr size_t kSessions = 8;
  constexpr size_t kQueries = sizeof(queries) / sizeof(queries[0]);
  std::vector<Result<std::string>> replies(kSessions,
                                           Status::Internal("not run"));
  {
    ServerOptions options = BaseOptions(NewSocketPath(), false);
    options.release_dirs = {dir};
    Server srv = *Server::Start(options);
    std::latch connected(kSessions);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        auto client = Client::Connect(srv.socket_path());
        connected.arrive_and_wait();
        if (!client.ok()) {
          replies[i] = client.status();
          return;
        }
        replies[i] = client->Query(queries[i % kQueries].sql,
                                   queries[i % kQueries].direct);
        (void)client->Bye();
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_TRUE(srv.Drain().ok());
  }
  for (size_t i = 0; i < kSessions; ++i) {
    SCOPED_TRACE("session " + std::to_string(i) + ": " +
                 queries[i % kQueries].sql);
    ASSERT_TRUE(replies[i].ok()) << replies[i].status().ToString();
    EXPECT_EQ(*replies[i], expected[i % kQueries]);
  }
}

TEST_F(ServerTortureTest, CountAllIsTheRowCountWithNullsInEveryColumn) {
  // `SELECT count(1) FROM r` counts rows, NULL or not, and is read off
  // the row count with no pass: locally, through Direct, and served.
  TableBuilder b(*Schema::Make(
      {Field::Discrete("category"), Field::Discrete("zone"),
       Field::Numerical("value", ValueType::kDouble)}));
  for (size_t r = 0; r < 500; ++r) {
    b.Row({r % 7 == 0 ? Value::Null() : Value("c" + std::to_string(r % 5)),
           r % 3 == 0 ? Value::Null() : Value("z" + std::to_string(r % 4)),
           r % 5 == 0 ? Value::Null() : Value(0.5 * static_cast<double>(r))});
  }
  Rng grr_rng(5);
  GrrOutput grr = *ApplyGrr(*b.Finish(), GrrParams::Uniform(0.25, 4.0),
                            GrrOptions{}, grr_rng);
  const std::string dir = base_ + "/nulls";
  ASSERT_TRUE(WriteRelease(grr, dir).ok());
  PrivateTable local = *OpenRelease(dir);
  for (size_t i = 0; i < local.relation().num_columns(); ++i) {
    EXPECT_GT(local.relation().column(i).null_count(), 0u);
  }
  const char* sql = "SELECT count(1) FROM r";
  const double rows = static_cast<double>(local.size());
  EXPECT_EQ(ExecuteSql(local, sql)->estimate, rows);
  EXPECT_EQ(ExecuteSqlDirect(local, sql)->estimate, rows);
  SqlResultSet rs = *ExecuteSqlQuery(local, sql);
  std::ostringstream expected;
  RenderSqlResultText(rs, /*direct=*/false, QueryOptions().confidence,
                      expected);
  EXPECT_EQ(expected.str(), "estimate: 500\n");

  ServerOptions options = BaseOptions(NewSocketPath(), false);
  options.release_dirs = {dir};
  Server srv = *Server::Start(options);
  auto client = Client::Connect(srv.socket_path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto served = client->Query(sql);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(*served, expected.str());
  ASSERT_TRUE(client->Bye().ok());
  ASSERT_TRUE(srv.Drain().ok());
}

#ifdef PCLEAN_BINARY
TEST_F(ServerTortureTest, HardKillMidTrafficKeepsLedgerInvariant) {
  const double cost = ChargedCost();
  Grant("t", 1e9);
  std::string socket_path = NewSocketPath();

  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::execl(PCLEAN_BINARY, PCLEAN_BINARY, "serve", release_dir_.c_str(),
            "--socket", socket_path.c_str(), "--ledger", ledger_dir_.c_str(),
            "--serve-for-ms", "60000", "--pool-threads", "4",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  // Wait for the socket to come up (the release + ledger open first).
  bool up = false;
  for (int i = 0; i < 300 && !up; ++i) {
    struct stat st;
    up = ::stat(socket_path.c_str(), &st) == 0;
    if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    int wait_status;
    ASSERT_EQ(::waitpid(pid, &wait_status, WNOHANG), 0)
        << "server exited before coming up";
  }
  ASSERT_TRUE(up);

  std::atomic<bool> stop{false};
  std::atomic<int> attempted{0};     // QUERY frames we tried to send
  std::atomic<int> acknowledged{0};  // RESULT frames we received
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        auto client = Client::Connect(socket_path, "t");
        if (!client.ok()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;
        }
        while (!stop.load()) {
          ++attempted;
          auto reply = client->Query(kChargedSql);
          if (!reply.ok()) break;  // killed mid-flight, or conn torn
          ++acknowledged;
        }
      }
    });
  }
  // Let real traffic build, then kill without warning: no drain, no WAL
  // flush courtesy, mid-query very likely.
  for (int i = 0; i < 500 && acknowledged.load() < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(pid, SIGKILL);
  int wait_status = 0;
  ::waitpid(pid, &wait_status, 0);
  ASSERT_TRUE(WIFSIGNALED(wait_status));
  stop.store(true);
  for (auto& t : threads) t.join();
  ::unlink(socket_path.c_str());

  ASSERT_GT(acknowledged.load(), 0) << "no traffic flowed before the kill";
  // Recovery invariant (the tentpole's ledger claim): every RESULT we
  // hold was charged durably BEFORE executing, and nothing beyond our
  // attempts can have been charged. spent ∈ [acked·cost, attempted·cost].
  const double spent = Spent("t");
  EXPECT_GE(spent, acknowledged.load() * cost - 1e-6)
      << "a query was answered without its charge surviving the crash";
  EXPECT_LE(spent, attempted.load() * cost + 1e-6)
      << "more charges survived than queries were ever sent";
}
#endif  // PCLEAN_BINARY

TEST_F(ServerTortureTest, FramingFaultKillsExactlyTheSessionItHit) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  Server srv = *Server::Start(BaseOptions(NewSocketPath(), false));
  Client a = *Client::Connect(srv.socket_path());
  Client b = *Client::Connect(srv.socket_path());
  ASSERT_TRUE(a.Query(kFreeSql).ok());
  ASSERT_TRUE(b.Query(kFreeSql).ok());

  // One bit flip on the next payload the server reads: that is A's
  // QUERY below (B is idle, so no other payload is in flight).
  failpoint::Fault fault =
      failpoint::DefaultFault("server.frame.read.bitflip");
  fault.remaining = 1;
  ASSERT_TRUE(failpoint::Activate("server.frame.read.bitflip", fault).ok());
  auto corrupted = a.Query(kFreeSql);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.status().IsDataLoss())
      << corrupted.status().ToString();
  // The corrupted stream cannot be resynchronized: A's session is dead.
  EXPECT_FALSE(a.Query(kFreeSql).ok());
  // B never noticed.
  EXPECT_TRUE(b.Query(kFreeSql).ok()) << "sibling session was not isolated";
  failpoint::DeactivateAll();
  EXPECT_TRUE(b.Query(kFreeSql).ok());
  ASSERT_TRUE(srv.Drain().ok());
}

TEST_F(ServerTortureTest, ShortWriteFaultSurfacesAsTornFrameAtTheClient) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  Server srv = *Server::Start(BaseOptions(NewSocketPath(), false));
  // Raw socket on purpose: `server.frame.write.short` sits in the shared
  // WriteFrame, so a polite Client would trip the fault on its own QUERY
  // write before the server ever replies. Sending the request with raw
  // send() leaves the server's RESULT write as the only WriteFrame in
  // the process — the one the fault is meant to tear.
  int fd = RawConnect(srv.socket_path());
  FrameReader reader(fd);
  failpoint::Fault fault =
      failpoint::DefaultFault("server.frame.write.short");
  fault.remaining = 1;
  RawHello(fd, reader);
  ASSERT_TRUE(failpoint::Activate("server.frame.write.short", fault).ok());
  QueryRequest request;
  request.sql = kFreeSql;
  RawSend(fd, EncodeFrame(Frame{FrameType::kQuery,
                                server::RenderQueryRequest(request)}));
  // Half-close after the request: the strand answers the QUERY (torn by
  // the fault), then sees our EOF and closes. The client reader ends up
  // with a partial RESULT terminated by EOF — which the framing layer
  // must type as DataLoss, never hand back as a short answer.
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  auto reply = reader.Read(20000);
  ASSERT_FALSE(reply.ok()) << "a torn RESULT was accepted: "
                           << (reply->has_value() ? (*reply)->payload
                                                  : "<eof>");
  EXPECT_TRUE(reply.status().IsDataLoss()) << reply.status().ToString();
  ::close(fd);
  failpoint::DeactivateAll();
  ASSERT_TRUE(srv.Drain().ok());
}

TEST_F(ServerTortureTest, TornClientFrameCannotWedgeTheServer) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  // The dual direction: a client whose QUERY loses its tail (the fault
  // fires on the Client's own WriteFrame) leaves the server waiting
  // mid-frame. The idle reaper must collect that half-dead session
  // instead of letting it pin the server forever.
  ServerOptions options = BaseOptions(NewSocketPath(), false);
  options.idle_timeout_ms = 300;
  Server srv = *Server::Start(options);
  Client client = *Client::Connect(srv.socket_path());
  ASSERT_TRUE(client.Query(kFreeSql).ok());
  failpoint::Fault fault =
      failpoint::DefaultFault("server.frame.write.short");
  fault.remaining = 1;
  ASSERT_TRUE(failpoint::Activate("server.frame.write.short", fault).ok());
  auto reply = client.Query(kFreeSql);
  failpoint::DeactivateAll();
  ASSERT_FALSE(reply.ok());
  // The server timed the stalled session out and said GOODBYE; the
  // client surfaces that as the session-closed FailedPrecondition.
  EXPECT_TRUE(reply.status().IsFailedPrecondition())
      << reply.status().ToString();
  EXPECT_NE(reply.status().ToString().find("idle timeout"),
            std::string::npos)
      << reply.status().ToString();
  ASSERT_TRUE(srv.Drain().ok());
}

TEST_F(ServerTortureTest, DrippedFrameCannotOutliveTheIdleTimeout) {
  // A client that keeps sending bytes without finishing a frame is as
  // idle as one that sends nothing: the idle clock runs from the last
  // complete frame, so the session is told GOODBYE and closed while the
  // client is still dripping.
  ServerOptions options = BaseOptions(NewSocketPath(), false);
  options.idle_timeout_ms = 300;
  Server srv = *Server::Start(options);
  int fd = RawConnect(srv.socket_path());
  RawSend(fd, "%PCLN QUERY 1000 00000000\n");
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool replied = false;
  while (!replied && std::chrono::steady_clock::now() < give_up) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    replied = ::poll(&pfd, 1, 100) > 0;
    // One payload byte per 100 ms. Once the server has shut its side the
    // send fails, which is fine: the reply is already on its way.
    if (!replied) (void)::send(fd, "x", 1, MSG_NOSIGNAL);
  }
  ASSERT_TRUE(replied) << "the dripping session outlived the idle timeout";
  FrameReader reader(fd);
  auto goodbye = reader.Read(10000);
  ASSERT_TRUE(goodbye.ok()) << goodbye.status().ToString();
  ASSERT_TRUE(goodbye->has_value());
  EXPECT_EQ((*goodbye)->type, FrameType::kGoodbye);
  EXPECT_EQ((*goodbye)->payload, "idle timeout");
  auto eof = reader.Read(10000);
  ASSERT_TRUE(eof.ok()) << eof.status().ToString();
  EXPECT_FALSE(eof->has_value()) << "session not closed after its GOODBYE";
  ::close(fd);
  ASSERT_TRUE(srv.Drain().ok());
}

TEST_F(ServerTortureTest, MalformedBytesGetTypedDataLossThenClose) {
  Server srv = *Server::Start(BaseOptions(NewSocketPath(), false));

  // Garbage instead of a header.
  {
    int fd = RawConnect(srv.socket_path());
    FrameReader reader(fd);
    RawSend(fd, "GET / HTTP/1.1\r\n\r\n");
    auto reply = reader.Read(10000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->has_value());
    EXPECT_EQ((*reply)->type, FrameType::kError);
    Status status = server::ParseStatusPayload((*reply)->payload);
    EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
    auto eof = reader.Read(10000);
    ASSERT_TRUE(eof.ok());
    EXPECT_FALSE(eof->has_value()) << "session not closed after bad framing";
    ::close(fd);
  }
  // An absurd length field: refused before any payload allocation.
  {
    int fd = RawConnect(srv.socket_path());
    FrameReader reader(fd);
    RawSend(fd, "%PCLN QUERY 9999999999 deadbeef\n");
    auto reply = reader.Read(10000);
    ASSERT_TRUE(reply.ok() && reply->has_value());
    EXPECT_EQ((*reply)->type, FrameType::kError);
    EXPECT_TRUE(server::ParseStatusPayload((*reply)->payload).IsDataLoss());
    ::close(fd);
  }
  // A well-formed header whose payload fails the checksum.
  {
    int fd = RawConnect(srv.socket_path());
    FrameReader reader(fd);
    RawSend(fd, "%PCLN HELLO 4 00000000\nabcd");
    auto reply = reader.Read(10000);
    ASSERT_TRUE(reply.ok() && reply->has_value());
    EXPECT_EQ((*reply)->type, FrameType::kError);
    EXPECT_TRUE(server::ParseStatusPayload((*reply)->payload).IsDataLoss());
    ::close(fd);
  }
  ASSERT_TRUE(srv.Drain().ok());
}

TEST_F(ServerTortureTest, PipelinedQueriesAnswerInOrder) {
  ServerOptions options = BaseOptions(NewSocketPath(), false);
  options.pool_threads = 2;
  Server srv = *Server::Start(options);
  int fd = RawConnect(srv.socket_path());
  FrameReader reader(fd);
  RawHello(fd, reader);
  // 12 queries at distinct confidence levels, written back-to-back
  // without reading a single reply: the strand must answer them in
  // order (each reply names its confidence), one frame per task.
  constexpr int kPipelined = 12;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    QueryRequest request;
    request.sql = kChargedSql;  // no ledger: charged SQL is just SQL
    request.confidence = 0.80 + 0.01 * i;
    burst += EncodeFrame(
        Frame{FrameType::kQuery, server::RenderQueryRequest(request)});
  }
  RawSend(fd, burst);
  for (int i = 0; i < kPipelined; ++i) {
    auto reply = reader.Read(20000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->has_value());
    ASSERT_EQ((*reply)->type, FrameType::kResult) << (*reply)->payload;
    std::string expected = FormatDouble((0.80 + 0.01 * i) * 100) + "% CI:";
    EXPECT_NE((*reply)->payload.find(expected), std::string::npos)
        << "reply " << i << " out of order: " << (*reply)->payload;
  }
  RawSend(fd, EncodeFrame(Frame{FrameType::kBye, ""}));
  auto goodbye = reader.Read(10000);
  ASSERT_TRUE(goodbye.ok() && goodbye->has_value());
  EXPECT_EQ((*goodbye)->type, FrameType::kGoodbye);
  ::close(fd);
  ASSERT_TRUE(srv.Drain().ok());
}

TEST_F(ServerTortureTest, SessionBindingRulesAreTyped) {
  std::string with_ledger_path = NewSocketPath();
  {
    BudgetLedger ledger = *BudgetLedger::Open(ledger_dir_);
    ASSERT_TRUE(ledger.Grant("alice", 100.0).ok());
  }
  Server with_ledger = *Server::Start(BaseOptions(with_ledger_path, true));
  // Ledger server: anonymous HELLO refused.
  auto anonymous = Client::Connect(with_ledger_path);
  ASSERT_FALSE(anonymous.ok());
  EXPECT_TRUE(anonymous.status().IsInvalidArgument());
  // Unknown release name: typed NotFound.
  auto wrong_release = Client::Connect(with_ledger_path, "alice", "nope");
  ASSERT_FALSE(wrong_release.ok());
  EXPECT_TRUE(wrong_release.status().IsNotFound());
  // Explicit bind name (the directory basename) works.
  auto named = Client::Connect(with_ledger_path, "alice", "release");
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  EXPECT_EQ(named->welcome().rows, 300u);

  Server no_ledger = *Server::Start(BaseOptions(NewSocketPath(), false));
  // Ledger-less server: naming a tenant is refused (nobody would charge).
  auto tenant = Client::Connect(no_ledger.socket_path(), "alice");
  ASSERT_FALSE(tenant.ok());
  EXPECT_TRUE(tenant.status().IsInvalidArgument());

  // QUERY before HELLO is a query-level FailedPrecondition; the session
  // survives and a later HELLO still binds.
  int fd = RawConnect(no_ledger.socket_path());
  FrameReader reader(fd);
  QueryRequest premature;
  premature.sql = kFreeSql;
  RawSend(fd, EncodeFrame(Frame{FrameType::kQuery,
                                server::RenderQueryRequest(premature)}));
  auto refused = reader.Read(10000);
  ASSERT_TRUE(refused.ok() && refused->has_value());
  ASSERT_EQ((*refused)->type, FrameType::kError);
  EXPECT_TRUE(
      server::ParseStatusPayload((*refused)->payload).IsFailedPrecondition());
  RawHello(fd, reader);
  // Second HELLO on a bound session: FailedPrecondition too.
  server::HelloRequest again;
  RawSend(fd,
          EncodeFrame(Frame{FrameType::kHello, server::RenderHello(again)}));
  auto rebind = reader.Read(10000);
  ASSERT_TRUE(rebind.ok() && rebind->has_value());
  ASSERT_EQ((*rebind)->type, FrameType::kError);
  EXPECT_TRUE(
      server::ParseStatusPayload((*rebind)->payload).IsFailedPrecondition());
  ::close(fd);
  ASSERT_TRUE(with_ledger.Drain().ok());
  ASSERT_TRUE(no_ledger.Drain().ok());
}

TEST_F(ServerTortureTest, DrainSaysGoodbyeAndIdleSessionsTimeOut) {
  // Drain: an established idle session gets a GOODBYE, then EOF, and
  // the socket file is gone afterwards.
  std::string socket_path = NewSocketPath();
  {
    Server srv = *Server::Start(BaseOptions(socket_path, false));
    int fd = RawConnect(socket_path);
    FrameReader reader(fd);
    RawHello(fd, reader);
    ASSERT_TRUE(srv.Drain().ok());
    auto goodbye = reader.Read(10000);
    ASSERT_TRUE(goodbye.ok() && goodbye->has_value());
    EXPECT_EQ((*goodbye)->type, FrameType::kGoodbye);
    EXPECT_EQ((*goodbye)->payload, "server draining");
    auto eof = reader.Read(10000);
    ASSERT_TRUE(eof.ok());
    EXPECT_FALSE(eof->has_value());
    ::close(fd);
    struct stat st;
    EXPECT_NE(::stat(socket_path.c_str(), &st), 0)
        << "drain left the socket file behind";
  }

  // Idle timeout: a session that sends nothing for longer than the
  // limit is closed with a GOODBYE naming the reason.
  ServerOptions options = BaseOptions(NewSocketPath(), false);
  options.idle_timeout_ms = 300;
  Server srv = *Server::Start(options);
  int fd = RawConnect(srv.socket_path());
  FrameReader reader(fd);
  RawHello(fd, reader);
  auto timed_out = reader.Read(20000);
  ASSERT_TRUE(timed_out.ok()) << timed_out.status().ToString();
  ASSERT_TRUE(timed_out->has_value());
  EXPECT_EQ((*timed_out)->type, FrameType::kGoodbye);
  EXPECT_EQ((*timed_out)->payload, "idle timeout");
  ::close(fd);
  ASSERT_TRUE(srv.Drain().ok());
}

TEST_F(ServerTortureTest, DrainAnswersQueuedQueriesBeforeGoodbye) {
  // The drain contract (session.h): queries already buffered when the
  // drain lands are still answered — each with a RESULT, never with a
  // bogus "QUERY before HELLO" error — and the GOODBYE follows the last
  // answer. The burst arrives in one read, and the strand answers one
  // frame per task on a 1-thread pool, so after the first RESULT
  // arrives here later queries of the burst are still buffered.
  ServerOptions options = BaseOptions(NewSocketPath(), false);
  options.pool_threads = 1;
  Server srv = *Server::Start(options);
  int fd = RawConnect(srv.socket_path());
  FrameReader reader(fd);
  RawHello(fd, reader);
  constexpr int kBurst = 16;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    QueryRequest request;
    request.sql = kFreeSql;
    burst += EncodeFrame(
        Frame{FrameType::kQuery, server::RenderQueryRequest(request)});
  }
  RawSend(fd, burst);
  auto first = reader.Read(20000);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->has_value());
  ASSERT_EQ((*first)->type, FrameType::kResult) << (*first)->payload;
  ASSERT_TRUE(srv.Drain().ok());
  // Everything between here and the GOODBYE must be a RESULT: buffered
  // queries are answered, not rejected. (Bytes the session had not yet
  // read at drain time are dropped by contract, so the count is free to
  // fall short of kBurst.)
  int results = 1;
  for (;;) {
    auto reply = reader.Read(20000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->has_value())
        << "EOF before GOODBYE, after " << results << " results";
    if ((*reply)->type == FrameType::kGoodbye) {
      EXPECT_EQ((*reply)->payload, "server draining");
      break;
    }
    ASSERT_EQ((*reply)->type, FrameType::kResult)
        << "queued query rejected during drain: " << (*reply)->payload;
    ++results;
  }
  EXPECT_GT(results, 1) << "drain landed after the whole burst; the "
                           "queued-query path was never exercised";
  auto eof = reader.Read(10000);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());
  ::close(fd);
}

TEST_F(ServerTortureTest, IdleSessionsAddNoThreads) {
  // One reactor thread waits on every socket, so an open session costs
  // an fd and a buffer, never a thread. 200, not thousands: this process
  // holds both ends of every connection.
  auto threads = [] {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
    }
    return -1;
  };
  Server srv = *Server::Start(BaseOptions(NewSocketPath(), false));
  const int before = threads();
  ASSERT_GT(before, 0);
  constexpr size_t kSessions = 200;
  std::vector<Client> clients;
  for (size_t i = 0; i < kSessions; ++i) {
    auto client = Client::Connect(srv.socket_path());
    ASSERT_TRUE(client.ok()) << "session " << i << ": "
                             << client.status().ToString();
    clients.push_back(std::move(*client));
  }
  EXPECT_EQ(threads(), before);
  EXPECT_EQ(srv.sessions_live(), kSessions);
  for (Client& client : clients) {
    auto reply = client.Query(kFreeSql);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }
  ASSERT_TRUE(srv.Drain().ok());
  EXPECT_EQ(srv.queries_served(), kSessions);
}

TEST_F(ServerTortureTest, OversizeFrameIsRefusedAtTheWriterWithATypedError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // One byte past the cap: typed ResourceExhausted, and NOTHING on the
  // wire — a partial oversize frame would reach the peer's reader as a
  // misleading "torn or corrupt frame" DataLoss.
  Frame big{FrameType::kResult,
            std::string(server::kMaxPayloadBytes + 1, 'x')};
  Status refused = server::WriteFrame(fds[0], big);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.IsResourceExhausted()) << refused.ToString();
  struct pollfd pfd;
  pfd.fd = fds[1];
  pfd.events = POLLIN;
  EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "bytes leaked before the size check";
  // At the cap exactly, the frame round-trips intact.
  Frame fits{FrameType::kResult, std::string(server::kMaxPayloadBytes, 'y')};
  std::thread writer([&] {
    EXPECT_TRUE(server::WriteFrame(fds[0], fits).ok());
    ::shutdown(fds[0], SHUT_WR);
  });
  FrameReader reader(fds[1]);
  auto frame = reader.Read(20000);
  writer.join();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->payload.size(), server::kMaxPayloadBytes);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(ServerTortureTest, SocketOwnershipLiveRefusalAndStaleTakeover) {
  std::string socket_path = NewSocketPath();
  {
    Server srv = *Server::Start(BaseOptions(socket_path, false));
    // A live sibling is refused, and its socket survives the refusal.
    auto second = Server::Start(BaseOptions(socket_path, false));
    ASSERT_FALSE(second.ok());
    EXPECT_TRUE(second.status().IsFailedPrecondition())
        << second.status().ToString();
    EXPECT_TRUE(Client::Connect(socket_path).ok())
        << "the failed Start damaged the live server's socket";
    ASSERT_TRUE(srv.Drain().ok());
  }
  // A stale file left by a crashed server (bound, never unlinked, no
  // listener behind it) is replaced.
  {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.data(), socket_path.size());
    int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_EQ(
        ::bind(stale, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ::close(stale);  // fd gone, file left behind
  }
  auto takeover = Server::Start(BaseOptions(socket_path, false));
  ASSERT_TRUE(takeover.ok()) << takeover.status().ToString();
  EXPECT_TRUE(Client::Connect(socket_path).ok());
  ASSERT_TRUE(takeover->Drain().ok());
}

TEST_F(ServerTortureTest, ConcurrentTakeoverOfAStaleSocketElectsOneServer) {
  // Two servers racing to replace the same stale socket: without the
  // flock serializing probe/unlink/bind/listen, both can judge the path
  // dead and the second silently unlinks the first's fresh socket.
  // Exactly one may win; the other must see the live-sibling refusal.
  std::string socket_path = NewSocketPath();
  {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.data(), socket_path.size());
    int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_EQ(
        ::bind(stale, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ::close(stale);  // fd gone, file left behind
  }
  std::optional<Result<Server>> results[2];
  {
    std::vector<std::thread> starters;
    for (auto& slot : results) {
      starters.emplace_back([&slot, this, &socket_path] {
        slot.emplace(Server::Start(BaseOptions(socket_path, false)));
      });
    }
    for (auto& t : starters) t.join();
  }
  int winners = 0;
  for (auto& slot : results) {
    ASSERT_TRUE(slot.has_value());
    if (slot->ok()) {
      ++winners;
    } else {
      EXPECT_TRUE(slot->status().IsFailedPrecondition())
          << slot->status().ToString();
    }
  }
  ASSERT_EQ(winners, 1) << "stale takeover elected " << winners << " servers";
  EXPECT_TRUE(Client::Connect(socket_path).ok())
      << "the losing starter damaged the winner's socket";
  for (auto& slot : results) {
    if (slot->ok()) {
      ASSERT_TRUE((**slot).Drain().ok());
    }
  }
}

TEST_F(ServerTortureTest, DrainFailpointLeavesHardStopClean) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  Server srv = *Server::Start(BaseOptions(NewSocketPath(), false));
  Client client = *Client::Connect(srv.socket_path());
  ASSERT_TRUE(client.Query(kFreeSql).ok());
  failpoint::Fault fault = failpoint::DefaultFault("server.drain");
  fault.remaining = 1;
  ASSERT_TRUE(failpoint::Activate("server.drain", fault).ok());
  Status drain = srv.Drain();
  ASSERT_FALSE(drain.ok());
  EXPECT_TRUE(drain.IsIOError()) << drain.ToString();
  failpoint::DeactivateAll();
  // Second attempt succeeds; the destructor would also hard-stop fine.
  EXPECT_TRUE(srv.Drain().ok());
}

}  // namespace
}  // namespace privateclean
