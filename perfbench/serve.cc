// The served workloads: an in-process server::Server driven through
// server::Client by nproc client threads, checked against a local copy
// of the same release opened in set-up (in a child process).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/string_util.h"
#include "lib_calls.h"
#include "privacy/ledger.h"
#include "server/client.h"
#include "server/server.h"

namespace pcbench {
namespace {

using privateclean::BudgetLedger;
using privateclean::Result;
using privateclean::Status;
namespace server = privateclean::server;

/// serve_scan sessions say BYE after this many queries and reconnect.
constexpr size_t kScanSessionQueries = 256;
/// Each funded tenant's grant: more than any run can spend.
constexpr double kGrantEpsilon = 1e9;
/// The clients load the server this long before the measured window
/// opens. serve_churn ran ~40% below its steady rate for its first
/// ~1.5 s (every run, any seed); that one-off ramp is a long-running
/// server's start-up, not its steady state.
constexpr double kLoadWarmupS = 2.0;

/// The measured window: an op counts when it starts and ends inside it.
struct Window {
  double begin = 0;
  double end = 0;
  bool Holds(double t0, double t1) const { return t0 >= begin && t1 <= end; }
};

/// A served release and what its answers are checked against.
struct Served {
  std::string release;
  std::string socket;
  std::string ledger;  // empty: the server runs without admission
  std::vector<std::string> expected;  // local rendering per pool query
  std::vector<double> cost;           // ε price per pool query
  size_t table_bytes = 0;             // the local table's MemoryUsage
  std::optional<server::Server> server;
  double start_ms = 0;  // Server::Start
  // Client-side totals, warm-up included, reconciled after Drain with
  // the server's own counters.
  uint64_t connects = 0;
  uint64_t results = 0;
};

/// Prepares the release and its reference in a child process, grants
/// the funded tenants when there is a ledger, and starts the server.
std::unique_ptr<Served> SetUpServed(const std::string& dir,
                                    const RunConfig& config, size_t rows,
                                    const std::vector<BenchQuery>& pool,
                                    bool with_ledger) {
  auto s = std::make_unique<Served>();
  s->release = dir + "/release";
  // Relative to the run directory: Unix socket paths cap at ~107 bytes.
  s->socket = dir + "/s.sock";
  Reference ref = PrepareInChild(config, dir, rows);
  if (ref.expected.size() != pool.size()) {
    Fatal("the set-up child rendered " + std::to_string(ref.expected.size()) +
          " of " + std::to_string(pool.size()) + " pool queries");
  }
  s->expected = std::move(ref.expected);
  s->cost = std::move(ref.cost);
  s->table_bytes = ref.table_bytes;
  if (with_ledger) {
    s->ledger = dir + "/ledger";
    auto ledger = BudgetLedger::Open(s->ledger);
    if (!ledger.ok()) Fatal("set-up ledger: " + ledger.status().ToString());
    for (int t = 0; t < ChurnSchedule::kFundedTenants; ++t) {
      Status granted =
          ledger->Grant(ChurnSchedule::FundedTenant(t), kGrantEpsilon);
      if (!granted.ok()) Fatal("set-up grant: " + granted.ToString());
    }
  }  // closed here; the server reopens it
  server::ServerOptions options;
  options.socket_path = s->socket;
  options.release_dirs = {s->release};
  options.ledger_dir = s->ledger;
  options.pool_threads = static_cast<int>(config.nproc);
  const double start = NowS();
  auto started = server::Server::Start(options);
  s->start_ms = (NowS() - start) * 1e3;
  if (!started.ok()) Fatal("Server::Start: " + started.status().ToString());
  s->server.emplace(std::move(*started));
  return s;
}

/// Drains the server and checks its counters against the clients'.
void DrainAndReconcile(Served& s, Report& report) {
  Status drained = s.server->Drain();
  report.Check(drained.ok(), "Drain: " + drained.ToString());
  const uint64_t accepted = s.server->sessions_accepted();
  const uint64_t served = s.server->queries_served();
  report.Check(accepted == s.connects,
               "server accepted " + std::to_string(accepted) +
                   " sessions, clients connected " +
                   std::to_string(s.connects));
  report.Check(served == s.results,
               "server answered " + std::to_string(served) +
                   " queries, clients received " +
                   std::to_string(s.results) + " RESULTs");
  report.Layer("server.sessions_accepted", static_cast<double>(accepted),
               "count");
  report.Layer("server.queries_served", static_cast<double>(served), "count");
  s.server.reset();
}

/// The per-layer metrics both served workloads share.
void AddServedLayers(Report& report, const Served& s,
                     const std::vector<double>& start_ms, size_t nproc,
                     const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms) {
  AddSpanLayers(report, 0, nproc, /*staged=*/false);
  report.Layer("server.start.ms", Median(start_ms), "ms");
  report.Layer("table.memory_bytes", static_cast<double>(s.table_bytes), "B");
  AddTraceOverhead(report, traced_ms, untraced_ms);
}

/// Runs `body(k)` on `threads` client threads and joins them.
void RunClients(size_t threads, const std::function<void(size_t)>& body) {
  std::vector<std::thread> clients;
  for (size_t k = 0; k < threads; ++k) clients.emplace_back(body, k);
  for (std::thread& client : clients) client.join();
}

// ----------------------------------------------------------- serve_churn

/// A uniform sample of at most kCapacity of the values added (reservoir
/// sampling, Algorithm R), in fixed memory. serve_churn times ~100k
/// sessions a run; keeping every latency made the benchmark's own
/// vectors most of the process's peak RSS, which then grew with the
/// host's speed. The client threads are alike, so their samples pool.
class Reservoir {
 public:
  static constexpr size_t kCapacity = 4096;

  explicit Reservoir(uint64_t seed) : seed_(seed) {}
  void Add(double value) {
    ++seen_;
    if (values_.size() < kCapacity) {
      values_.push_back(value);
      return;
    }
    const uint64_t slot = Mix(seed_, seen_) % seen_;
    if (slot < kCapacity) values_[slot] = value;
  }
  void AppendTo(std::vector<double>& out) const {
    out.insert(out.end(), values_.begin(), values_.end());
  }

 private:
  uint64_t seed_;
  uint64_t seen_ = 0;
  std::vector<double> values_;
};

/// One client thread's serve_churn outcomes.
struct ChurnTally {
  explicit ChurnTally(uint64_t seed = 0)
      : session_ms(Mix(seed, 1)),
        traced_session_ms(Mix(seed, 2)),
        query_ms(Mix(seed, 3)) {}

  uint64_t sessions = 0;
  uint64_t connects = 0;
  uint64_t results = 0;
  uint64_t refused = 0;
  uint64_t queries = 0;
  std::map<std::string, double> acked;  // ε of acknowledged admissions
  // Latencies in the measured window: passing sessions, untraced and
  // traced, and the untraced sessions' round trips.
  Reservoir session_ms;
  Reservoir traced_session_ms;
  Reservoir query_ms;
  Failures failures;
  // Passing sessions, and their answered or refused queries, in the
  // measured window.
  uint64_t sessions_measured = 0;
  uint64_t queries_measured = 0;

  void Add(const ChurnTally& t) {
    sessions += t.sessions;
    connects += t.connects;
    results += t.results;
    refused += t.refused;
    queries += t.queries;
    for (const auto& [tenant, eps] : t.acked) acked[tenant] += eps;
    failures.count += t.failures.count;
    failures.first.insert(failures.first.end(), t.failures.first.begin(),
                          t.failures.first.end());
    sessions_measured += t.sessions_measured;
    queries_measured += t.queries_measured;
  }
};

/// One scheduled session — connect with HELLO, four queries, BYE — then
/// the checks on every reply: a priced query of the unfunded tenant must
/// be refused with ResourceExhausted; every other reply must be the
/// admission line for its exact ε price followed by the local rendering.
void RunChurnSession(const Served& s, const std::vector<BenchQuery>& pool,
                     const ChurnSession& plan, bool traced,
                     const Window& window, ChurnTally& t) {
  struct Reply {
    size_t query;
    Result<std::string> answer;
    double ms;
  };
  std::vector<Reply> replies;
  Status connected;
  Status bye;
  const double t0 = NowS();
  {
    Span op("op");
    auto client = Traced("server.connect", [&] {
      return server::Client::Connect(s.socket, plan.tenant);
    });
    connected = client.status();
    if (client.ok()) {
      for (size_t q : plan.queries) {
        const char* outcome = s.cost[q] == 0.0 ? "free"
                              : plan.unfunded  ? "refused"
                                               : "charged";
        const double q0 = NowS();
        auto answer = Traced(std::string("server.query.") + outcome, [&] {
          return client->Query(pool[q].sql, pool[q].direct);
        });
        replies.push_back(Reply{q, std::move(answer), (NowS() - q0) * 1e3});
      }
      bye = Traced("server.bye", [&] { return client->Bye(); });
    }
  }
  const double t1 = NowS();
  const bool measured = window.Holds(t0, t1);

  ++t.sessions;
  bool ok = true;
  auto fail = [&](const std::string& what) {
    ok = false;
    t.failures.Add("session of '" + plan.tenant + "': " + what);
  };
  if (!connected.ok()) fail("Connect: " + connected.ToString());
  if (connected.ok()) ++t.connects;
  if (!bye.ok()) fail("Bye: " + bye.ToString());
  for (const Reply& reply : replies) {
    ++t.queries;
    if (measured && !traced) t.query_ms.Add(reply.ms);
    const std::string& sql = pool[reply.query].sql;
    if (reply.answer.ok()) ++t.results;
    if (plan.unfunded && s.cost[reply.query] > 0.0) {
      if (!reply.answer.ok() &&
          reply.answer.status().IsResourceExhausted()) {
        ++t.refused;
      } else {
        fail("'" + sql + "' was not refused with ResourceExhausted");
      }
      continue;
    }
    if (!reply.answer.ok()) {
      fail("'" + sql + "': " + reply.answer.status().ToString());
      continue;
    }
    const std::string& text = *reply.answer;
    const std::string prefix =
        "charged epsilon " + privateclean::FormatDouble(s.cost[reply.query]) +
        " to tenant '" + plan.tenant + "' (remaining ";
    const size_t eol = text.find('\n');
    if (eol == std::string::npos || eol <= prefix.size() ||
        text.compare(0, prefix.size(), prefix) != 0 || text[eol - 1] != ')') {
      fail("'" + sql + "': admission line is not '" + prefix + "...)'");
      continue;
    }
    if (text.compare(eol + 1, std::string::npos, s.expected[reply.query]) !=
        0) {
      fail("'" + sql + "': answer differs from the local rendering");
      continue;
    }
    t.acked[plan.tenant] += s.cost[reply.query];
  }
  if (!ok || !measured) return;
  (traced ? t.traced_session_ms : t.session_ms).Add((t1 - t0) * 1e3);
  ++t.sessions_measured;
  t.queries_measured += replies.size();
}

}  // namespace

Report RunServeScan(const RunConfig& config) {
  Report report;
  const size_t rows = config.rows > 0 ? config.rows : kLargeRows;
  const ScanSchedule schedule(config.seed);
  const std::vector<BenchQuery>& pool = schedule.pool();
  std::vector<double> start_ms;
  auto s = SetUpRepeatedly<Served>(config, report, [&](const std::string&
                                                           dir) {
    auto served = SetUpServed(dir, config, rows, pool, /*with_ledger=*/false);
    start_ms.push_back(served->start_ms);
    // Warm-up: one session asks every pool query once.
    auto client = server::Client::Connect(served->socket);
    if (!client.ok()) Fatal("warm-up connect: " + client.status().ToString());
    ++served->connects;
    for (size_t i = 0; i < pool.size(); ++i) {
      auto answer = client->Query(pool[i].sql, pool[i].direct);
      if (!answer.ok()) {
        Fatal("warm-up '" + pool[i].sql + "': " + answer.status().ToString());
      }
      ++served->results;
      if (*answer != served->expected[i]) {
        Fatal("warm-up answer to '" + pool[i].sql +
              "' differs from the local rendering");
      }
    }
    Status bye = client->Bye();
    if (!bye.ok()) Fatal("warm-up Bye: " + bye.ToString());
    return served;
  });

  // K = nproc anonymous clients pull queries from one shared stream.
  struct Tally {
    std::vector<double> untraced_ms;
    std::vector<double> traced_ms;
    uint64_t attempted = 0;
    uint64_t connects = 0;
    uint64_t results = 0;
    uint64_t answered = 0;  // checked answers in the measured window
    Failures failures;
  };
  std::vector<Tally> tallies(config.nproc);
  std::atomic<uint64_t> next{0};
  const double begin = NowS() + kLoadWarmupS;
  const Window window{begin, begin + config.seconds};
  RunClients(config.nproc, [&](size_t k) {
    Tally& t = tallies[k];
    // In a traced run connects and BYEs are traced standalone calls and
    // every second query is a traced op; the others give the overhead.
    SetThreadTracing(config.trace);
    std::optional<server::Client> client;
    size_t in_session = 0;
    uint64_t ops = 0;
    auto close = [&] {
      Status bye = Traced("server.bye", [&] { return client->Bye(); });
      client.reset();
      ++t.attempted;
      if (!bye.ok()) t.failures.Add("Bye: " + bye.ToString());
    };
    while (NowS() < window.end) {
      if (!client) {
        auto connected = Traced("server.connect", [&] {
          return server::Client::Connect(s->socket);
        });
        if (!connected.ok()) {
          ++t.attempted;
          t.failures.Add("Connect: " + connected.status().ToString());
          continue;
        }
        ++t.connects;
        client.emplace(std::move(*connected));
        in_session = 0;
      }
      const size_t q = schedule.At(next.fetch_add(1, std::memory_order_relaxed));
      const BenchQuery& query = pool[q];
      const bool traced = config.trace && ops++ % 2 == 1;
      SetThreadTracing(traced);
      const double t0 = NowS();
      Result<std::string> answer = [&] {
        Span op("op");
        return Traced(std::string("server.query.") + QueryClassName(query.cls),
                      [&] { return client->Query(query.sql, query.direct); });
      }();
      const double t1 = NowS();
      SetThreadTracing(config.trace);
      ++t.attempted;
      if (!answer.ok()) {
        t.failures.Add("'" + query.sql + "': " + answer.status().ToString());
        client.reset();
        continue;
      }
      ++t.results;
      if (*answer != s->expected[q]) {
        t.failures.Add("answer to '" + query.sql +
                       "' differs from the local rendering");
      } else if (window.Holds(t0, t1)) {
        ++t.answered;
        (traced ? t.traced_ms : t.untraced_ms).push_back((t1 - t0) * 1e3);
      }
      if (++in_session == kScanSessionQueries) close();
    }
    if (client) close();
    SetThreadTracing(false);
  });

  std::vector<double> untraced;
  std::vector<double> traced;
  uint64_t answered = 0;
  for (const Tally& t : tallies) {
    report.Absorb(t.attempted, t.failures);
    s->connects += t.connects;
    s->results += t.results;
    answered += t.answered;
    untraced.insert(untraced.end(), t.untraced_ms.begin(), t.untraced_ms.end());
    traced.insert(traced.end(), t.traced_ms.begin(), t.traced_ms.end());
  }
  // Throughput over the measured window: a straggler finishing after it
  // would otherwise stretch it by up to one slow query.
  const double qps = static_cast<double>(answered) / config.seconds;
  const std::string samples = std::to_string(untraced.size()) + " queries";
  report.Set("op_p50_ms", Median(untraced), "ms");
  report.Set("ops_per_s", qps, "1/s");
  report.Line("query_p50_ms", Median(untraced), "ms", samples);
  report.Line("query_p99_ms", Percentile(untraced, 99), "ms", samples);
  report.Line("queries_per_s", qps, "1/s");
  AddReleaseMetrics(report, s->release, rows);
  DrainAndReconcile(*s, report);
  if (config.trace) {
    AddServedLayers(report, *s, start_ms, config.nproc, traced, untraced);
  }
  return report;
}

Report RunServeChurn(const RunConfig& config) {
  Report report;
  const size_t rows =
      config.rows > 0 ? std::min(config.rows, kSmallRows) : kSmallRows;
  const ChurnSchedule schedule(config.seed);
  const std::vector<BenchQuery>& pool = schedule.pool();
  // The warm-up runs the first funded session of the schedule.
  uint64_t warm_index = 0;
  while (schedule.Session(warm_index).unfunded) ++warm_index;
  std::vector<double> start_ms;
  ChurnTally warm;
  auto s = SetUpRepeatedly<Served>(config, report, [&](const std::string&
                                                           dir) {
    auto served = SetUpServed(dir, config, rows, pool, /*with_ledger=*/true);
    start_ms.push_back(served->start_ms);
    warm = ChurnTally{};
    RunChurnSession(*served, pool, schedule.Session(warm_index), false,
                    Window{}, warm);
    if (warm.failures.count > 0) Fatal("warm-up " + warm.failures.first[0]);
    return served;
  });

  // K = nproc clients pull whole sessions from one shared schedule.
  std::vector<ChurnTally> tallies;
  for (size_t k = 0; k < config.nproc; ++k) {
    tallies.emplace_back(Mix(config.seed, k));
  }
  std::atomic<uint64_t> next{0};
  const double begin = NowS() + kLoadWarmupS;
  const Window window{begin, begin + config.seconds};
  RunClients(config.nproc, [&](size_t k) {
    uint64_t ops = 0;
    while (NowS() < window.end) {
      const ChurnSession plan =
          schedule.Session(next.fetch_add(1, std::memory_order_relaxed));
      const bool traced = config.trace && ops++ % 2 == 1;
      SetThreadTracing(traced);
      RunChurnSession(*s, pool, plan, traced, window, tallies[k]);
      SetThreadTracing(false);
    }
  });

  ChurnTally run;
  std::vector<double> session_ms;
  std::vector<double> traced_session_ms;
  std::vector<double> query_ms;
  for (const ChurnTally& t : tallies) {
    run.Add(t);
    t.session_ms.AppendTo(session_ms);
    t.traced_session_ms.AppendTo(traced_session_ms);
    t.query_ms.AppendTo(query_ms);
  }
  report.Absorb(run.sessions, run.failures);
  ChurnTally all = warm;
  all.Add(run);
  s->connects = all.connects;
  s->results = all.results;

  const double sessions_per_s =
      static_cast<double>(run.sessions_measured) / config.seconds;
  const double queries_per_s =
      static_cast<double>(run.queries_measured) / config.seconds;
  report.Set("op_p50_ms", Median(session_ms), "ms");
  report.Set("ops_per_s", sessions_per_s, "1/s");
  report.Line("session_p50_ms", Median(session_ms), "ms",
              std::to_string(session_ms.size()) + " sampled sessions");
  const std::string samples =
      std::to_string(query_ms.size()) + " sampled queries";
  report.Line("query_p50_ms", Median(query_ms), "ms", samples);
  report.Line("query_p99_ms", Percentile(query_ms, 99), "ms", samples);
  report.Line("queries_per_s", queries_per_s, "1/s", "answered plus refused");
  AddReleaseMetrics(report, s->release, rows);
  DrainAndReconcile(*s, report);

  // The ledger, reopened after the server let it go: every funded
  // tenant's spend is exactly the ε of its acknowledged admissions.
  auto ledger = BudgetLedger::Open(s->ledger);
  report.Check(ledger.ok(), "reopening the ledger: " +
                                ledger.status().ToString());
  double records_per_query = 0;
  if (ledger.ok()) {
    for (int i = 0; i < ChurnSchedule::kFundedTenants; ++i) {
      const std::string tenant = ChurnSchedule::FundedTenant(i);
      auto budget = ledger->Budget(tenant);
      const double acked = all.acked[tenant];
      report.Check(budget.ok() && std::fabs(budget->spent - acked) <=
                                      1e-9 * std::max(1.0, acked),
                   "tenant '" + tenant + "' spent " +
                       (budget.ok() ? privateclean::FormatDouble(budget->spent)
                                    : budget.status().ToString()) +
                       ", acknowledged " + privateclean::FormatDouble(acked));
    }
    auto unfunded = ledger->Budget(ChurnSchedule::kUnfundedTenant);
    report.Check(!unfunded.ok() || unfunded->spent == 0.0,
                 "the unfunded tenant was charged");
    const double records = static_cast<double>(ledger->last_seq()) -
                           ChurnSchedule::kFundedTenants;
    records_per_query = records / static_cast<double>(all.queries);
  }
  if (config.trace) {
    AddServedLayers(report, *s, start_ms, config.nproc, traced_session_ms,
                    session_ms);
    report.Layer("ledger.records_per_query", records_per_query, "ratio");
    report.Layer("admission.refused_ratio",
                 static_cast<double>(all.refused) /
                     static_cast<double>(all.queries),
                 "ratio");
  }
  return report;
}

}  // namespace pcbench
