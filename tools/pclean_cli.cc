#include "tools/pclean_cli.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <initializer_list>
#include <map>
#include <optional>
#include <string_view>
#include <thread>

#include "common/io_util.h"
#include "common/string_util.h"
#include "core/privateclean.h"
#include "server/client.h"
#include "server/server.h"

namespace privateclean {

namespace {

/// Parsed command line: flag -> values (repeatable flags keep all).
struct ParsedArgs {
  std::map<std::string, std::vector<std::string>> flags;

  bool Has(const std::string& name) const { return flags.count(name) > 0; }

  Result<std::string> One(const std::string& name) const {
    auto it = flags.find(name);
    if (it == flags.end() || it->second.empty()) {
      return Status::InvalidArgument("missing required flag --" + name);
    }
    if (it->second.size() > 1) {
      return Status::InvalidArgument("flag --" + name +
                                     " given more than once");
    }
    return it->second[0];
  }

  const std::vector<std::string>& All(const std::string& name) const {
    static const std::vector<std::string> kEmpty;
    auto it = flags.find(name);
    return it == flags.end() ? kEmpty : it->second;
  }

  /// InvalidArgument naming the first flag that `command` does not read:
  /// a misspelled flag must fail, not fall back to the flag's default.
  Status OnlyFlags(const char* command,
                   std::initializer_list<std::string_view> known) const {
    for (const auto& flag : flags) {
      if (std::find(known.begin(), known.end(), flag.first) == known.end()) {
        return Status::InvalidArgument("unknown flag --" + flag.first +
                                       " for pclean " + command);
      }
    }
    return Status::OK();
  }
};

Result<ParsedArgs> ParseFlags(const std::vector<std::string>& args,
                              size_t start) {
  ParsedArgs parsed;
  for (size_t i = start; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      return Status::InvalidArgument("expected a --flag, got '" + arg +
                                     "'");
    }
    std::string name = arg.substr(2);
    // --flag=value or --flag value.
    if (auto eq = name.find('='); eq != std::string::npos) {
      parsed.flags[name.substr(0, eq)].push_back(name.substr(eq + 1));
    } else if (name == "direct") {  // Boolean flags.
      parsed.flags[name].push_back("true");
    } else {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a value");
      }
      parsed.flags[name].push_back(args[++i]);
    }
  }
  return parsed;
}

Result<double> ParseFlagDouble(const ParsedArgs& args,
                               const std::string& name) {
  PCLEAN_ASSIGN_OR_RETURN(std::string text, args.One(name));
  return ParseDouble(text);
}

/// --threads N: scan/randomization parallelism. 1 = single-threaded
/// (default), 0 = all hardware threads. Output is identical at every
/// setting; only wall-clock time changes.
Result<ExecutionOptions> ParseExecOptions(const ParsedArgs& args) {
  ExecutionOptions exec;
  if (args.Has("threads")) {
    PCLEAN_ASSIGN_OR_RETURN(std::string text, args.One("threads"));
    PCLEAN_ASSIGN_OR_RETURN(int64_t threads, ParseInt64(text));
    if (threads < 0) {
      return Status::InvalidArgument("--threads must be >= 0");
    }
    exec.num_threads = static_cast<size_t>(threads);
  }
  return exec;
}

void PrintUsage(std::ostream& out) {
  out << "pclean - PrivateClean command-line tool\n"
         "\n"
         "  pclean privatize --input data.csv --output release_dir\n"
         "         (--epsilon E | --p P --b B | --count-error TARGET)\n"
         "         [--mechanism grr|hlm]\n"
         "         [--seed N] [--threads N]\n"
         "  pclean info --release release_dir\n"
         "  pclean verify release_dir\n"
         "  pclean export --release release_dir --output data.csv\n"
         "  pclean query --release release_dir --sql \"SELECT ...\"\n"
         "         [--direct] [--confidence C] [--threads N]\n"
         "         [--bootstrap R] [--seed N] [--replace attr:from=to]...\n"
         "         [--ledger ledger_dir --tenant NAME]\n"
         "  pclean query --connect SOCKET --sql \"SELECT ...\"\n"
         "         [--tenant NAME] [--release BIND_NAME] [--direct]\n"
         "         [--confidence C]\n"
         "  pclean budget grant --ledger ledger_dir --tenant NAME --epsilon E\n"
         "  pclean budget relax --ledger ledger_dir --tenant NAME --epsilon E\n"
         "  pclean budget show --ledger ledger_dir [--tenant NAME]\n"
         "  pclean serve release_dir... --socket PATH [--ledger ledger_dir]\n"
         "         [--pool-threads N] [--threads N] [--idle-timeout-ms N]\n"
         "         [--serve-for-ms N]\n"
         "\n"
         "  verify checks every release file against the MANIFEST checksums,\n"
         "  decodes the verified bytes, and exits non-zero on any corruption\n"
         "  (Data loss), a missing release (Not found), or a release format\n"
         "  this build cannot read (Failed precondition).\n"
         "  export writes the release's private relation as CSV, NULL as \\N.\n"
         "\n"
         "  --mechanism picks the discrete randomization family: grr\n"
         "  (paper generalized randomized response, the default) or hlm\n"
         "  (Holohan-Leith-Mason optimal RR; --p is the per-attribute\n"
         "  target epsilon). --count-error tuning is grr-only.\n"
         "  --threads N uses N worker threads for randomization and query\n"
         "  scans (0 = all hardware threads); results are independent of N.\n"
         "  --bootstrap R wraps median/percentile/var/std estimates in a\n"
         "  bootstrap confidence interval with R replicates (needs R >= 10;\n"
         "  the replicate loop also threads per --threads). --seed fixes\n"
         "  the resampling stream.\n"
         "  budget manages per-tenant epsilon budgets in a crash-safe\n"
         "  ledger directory (WAL + checkpoint). grant opens or tops up a\n"
         "  tenant's budget, relax returns unspent epsilon after a\n"
         "  data-cleaning relaxation, and show prints granted/spent/\n"
         "  remaining. query with --ledger and --tenant charges the\n"
         "  query's epsilon cost against the tenant BEFORE executing and\n"
         "  rejects overdrafts (Resource exhausted) without running the\n"
         "  query.\n"
         "  serve opens the releases read-only and multiplexes analyst\n"
         "  sessions over a Unix-domain socket; query --connect runs the\n"
         "  same query through a session and prints the identical bytes.\n"
         "  With --ledger the server charges every session's queries\n"
         "  against its tenant's budget. --pool-threads sizes the session\n"
         "  scheduler (1 serializes all sessions; results never depend on\n"
         "  it). serve drains gracefully on SIGTERM/SIGINT, or after\n"
         "  --serve-for-ms milliseconds.\n";
}

Status RunPrivatize(const ParsedArgs& args, std::ostream& out) {
  PCLEAN_RETURN_NOT_OK(args.OnlyFlags(
      "privatize", {"input", "output", "epsilon", "p", "b", "count-error",
                    "mechanism", "seed", "threads"}));
  // The randomization family for discrete attributes
  // (privacy/mechanism.h), the paper's GRR by default; parsed here so a
  // misspelled name fails before any I/O.
  MechanismFamily mechanism = MechanismFamily::kGrr;
  if (args.Has("mechanism")) {
    PCLEAN_ASSIGN_OR_RETURN(std::string name, args.One("mechanism"));
    PCLEAN_ASSIGN_OR_RETURN(mechanism, ParseMechanismFamily(name));
  }
  PCLEAN_ASSIGN_OR_RETURN(std::string input, args.One("input"));
  PCLEAN_ASSIGN_OR_RETURN(std::string output, args.One("output"));

  // One read of the input (a missing file is NotFound naming the path;
  // transient read errors are retried), shared by both ingest calls.
  PCLEAN_ASSIGN_OR_RETURN(std::string text, io::ReadFileWithRetry(input));

  CsvOptions csv_options;
  csv_options.error_context = input;
  PCLEAN_ASSIGN_OR_RETURN(csv_options.exec, ParseExecOptions(args));
  PCLEAN_ASSIGN_OR_RETURN(Schema schema, InferCsvSchema(text, csv_options));
  PCLEAN_ASSIGN_OR_RETURN(Table table, CsvToTable(text, schema, csv_options));

  uint64_t seed = 0;
  if (args.Has("seed")) {
    PCLEAN_ASSIGN_OR_RETURN(std::string seed_text, args.One("seed"));
    PCLEAN_ASSIGN_OR_RETURN(int64_t parsed, ParseInt64(seed_text));
    seed = static_cast<uint64_t>(parsed);
  }
  Rng rng(seed != 0 ? seed : 0x9E3779B97F4A7C15ULL);

  GrrParams params;
  if (args.Has("epsilon")) {
    PCLEAN_ASSIGN_OR_RETURN(double epsilon, ParseFlagDouble(args, "epsilon"));
    PCLEAN_ASSIGN_OR_RETURN(
        params, AllocateEpsilonBudget(table, epsilon, {}, mechanism));
  } else if (args.Has("count-error")) {
    if (mechanism != MechanismFamily::kGrr) {
      return Status::InvalidArgument(
          std::string("--count-error tuning models the paper's GRR "
                      "estimator; use --epsilon (or --p/--b) with "
                      "--mechanism ") +
          MechanismName(mechanism));
    }
    PCLEAN_ASSIGN_OR_RETURN(double target,
                            ParseFlagDouble(args, "count-error"));
    PCLEAN_ASSIGN_OR_RETURN(TuningResult tuning,
                            TunePrivacyParameters(table, target));
    params = ToGrrParams(tuning);
  } else if (args.Has("p") && args.Has("b")) {
    // --p is the family's per-attribute parameter: the replacement
    // probability for grr, the target epsilon for hlm.
    PCLEAN_ASSIGN_OR_RETURN(double p, ParseFlagDouble(args, "p"));
    PCLEAN_ASSIGN_OR_RETURN(double b, ParseFlagDouble(args, "b"));
    params = GrrParams::Uniform(p, b);
  } else {
    return Status::InvalidArgument(
        "privatize needs --epsilon, --count-error, or both --p and --b");
  }

  GrrOptions grr_options;
  grr_options.mechanism = mechanism;
  grr_options.exec = csv_options.exec;
  PCLEAN_ASSIGN_OR_RETURN(GrrOutput grr,
                          ApplyGrr(table, params, grr_options, rng));
  PCLEAN_RETURN_NOT_OK(WriteRelease(grr, output, csv_options.exec));
  PCLEAN_ASSIGN_OR_RETURN(PrivacyReport report,
                          AccountPrivacy(grr.metadata));
  out << "wrote release: " << output << "\n";
  out << "  rows: " << grr.table.num_rows() << "\n";
  out << "  mechanism: " << MechanismName(grr.metadata.mechanism) << "\n";
  out << "  total epsilon: " << FormatDouble(report.total_epsilon) << "\n";
  if (grr.total_regenerations > 0) {
    out << "  regenerations: " << grr.total_regenerations << "\n";
  }
  return Status::OK();
}

Status RunInfo(const ParsedArgs& args, std::ostream& out) {
  PCLEAN_RETURN_NOT_OK(args.OnlyFlags("info", {"release"}));
  PCLEAN_ASSIGN_OR_RETURN(std::string dir, args.One("release"));
  PCLEAN_ASSIGN_OR_RETURN(LoadedRelease release, ReadRelease(dir));
  PCLEAN_ASSIGN_OR_RETURN(PrivacyReport report,
                          AccountPrivacy(release.metadata));
  out << "release: " << dir << "\n";
  out << "  rows: " << release.relation.num_rows() << "\n";
  out << "  mechanism: " << MechanismName(release.metadata.mechanism)
      << "\n";
  out << "  attributes:\n";
  const Schema& schema = release.relation.schema();
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.field(i);
    out << "    " << field.name << " ("
        << AttributeKindToString(field.kind) << " "
        << ValueTypeToString(field.type) << ")";
    if (field.kind == AttributeKind::kDiscrete) {
      const auto& meta = release.metadata.discrete.at(field.name);
      out << "  p=" << FormatDouble(meta.p)
          << "  N=" << meta.domain.size();
    } else {
      const auto& meta = release.metadata.numeric.at(field.name);
      out << "  b=" << FormatDouble(meta.b)
          << "  sensitivity=" << FormatDouble(meta.sensitivity);
    }
    out << "  epsilon="
        << FormatDouble(report.per_attribute_epsilon.at(field.name))
        << "\n";
  }
  out << "  total epsilon: " << FormatDouble(report.total_epsilon) << "\n";
  return Status::OK();
}

Status RunVerify(const ParsedArgs& args, std::string dir, std::ostream& out) {
  PCLEAN_RETURN_NOT_OK(args.OnlyFlags("verify", {"release"}));
  if (dir.empty()) {
    PCLEAN_ASSIGN_OR_RETURN(dir, args.One("release"));
  }
  PCLEAN_ASSIGN_OR_RETURN(ReleaseVerification verification,
                          VerifyRelease(dir));
  out << "release: " << dir << "\n";
  out << "  format: v" << kReleaseFormatVersion << "\n";
  out << "  rows: " << verification.rows << "\n";
  for (const ReleaseFileCheck& check : verification.files) {
    out << "  " << check.file << "  " << check.bytes << " bytes  "
        << (check.status.ok() ? "OK" : check.status.ToString()) << "\n";
  }
  if (!verification.status.ok()) return verification.status;
  out << "verification: OK\n";
  return Status::OK();
}

/// Writes the private relation as CSV: the interchange form of a
/// release, with `\N` for NULL so NULL and the empty string stay apart.
Status RunExport(const ParsedArgs& args, std::ostream& out) {
  PCLEAN_RETURN_NOT_OK(args.OnlyFlags("export", {"release", "output"}));
  PCLEAN_ASSIGN_OR_RETURN(std::string dir, args.One("release"));
  PCLEAN_ASSIGN_OR_RETURN(std::string output, args.One("output"));
  PCLEAN_ASSIGN_OR_RETURN(LoadedRelease release, ReadRelease(dir));
  CsvOptions options;
  options.null_literal = "\\N";
  PCLEAN_RETURN_NOT_OK(WriteCsvFile(release.relation, output, options));
  out << "exported " << release.relation.num_rows() << " rows to " << output
      << "\n";
  return Status::OK();
}

/// Parses a --replace rule "attr:from=to" with values typed by the
/// attribute's column type.
Status ApplyReplaceRule(PrivateTable* table, const std::string& rule) {
  auto colon = rule.find(':');
  auto eq = rule.find('=', colon == std::string::npos ? 0 : colon + 1);
  if (colon == std::string::npos || eq == std::string::npos ||
      colon == 0 || eq <= colon + 1) {
    return Status::InvalidArgument(
        "--replace expects attr:from=to, got '" + rule + "'");
  }
  std::string attr = rule.substr(0, colon);
  std::string from_text = rule.substr(colon + 1, eq - colon - 1);
  std::string to_text = rule.substr(eq + 1);
  PCLEAN_ASSIGN_OR_RETURN(Field field,
                          table->relation().schema().FieldByName(attr));
  auto typed = [&](const std::string& text) -> Result<Value> {
    if (text == "\\N") return Value::Null();
    switch (field.type) {
      case ValueType::kInt64: {
        PCLEAN_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
        return Value(v);
      }
      case ValueType::kDouble: {
        PCLEAN_ASSIGN_OR_RETURN(double v, ParseDouble(text));
        return Value(v);
      }
      default:
        return Value(text);
    }
  };
  PCLEAN_ASSIGN_OR_RETURN(Value from, typed(from_text));
  PCLEAN_ASSIGN_OR_RETURN(Value to, typed(to_text));
  return table->Clean(
      FindReplace::Single(attr, std::move(from), std::move(to)));
}

/// `pclean query --connect SOCKET`: the same query, served. The client
/// sends one QUERY frame and prints the RESULT payload verbatim, which
/// the server rendered through the exact functions the local path below
/// uses — so the bytes match a local `pclean query` over the same
/// release.
Status RunServedQuery(const ParsedArgs& args, std::ostream& out) {
  // Execution-owning flags make no sense here: the server owns the
  // table, the ledger, and the threading.
  for (const char* banned :
       {"ledger", "replace", "bootstrap", "seed", "threads"}) {
    if (args.Has(banned)) {
      return Status::InvalidArgument(
          std::string("--") + banned +
          " does not apply with --connect: the server owns execution");
    }
  }
  PCLEAN_ASSIGN_OR_RETURN(std::string socket_path, args.One("connect"));
  server::QueryRequest request;
  PCLEAN_ASSIGN_OR_RETURN(request.sql, args.One("sql"));
  request.direct = args.Has("direct");
  if (args.Has("confidence")) {
    PCLEAN_ASSIGN_OR_RETURN(request.confidence,
                            ParseFlagDouble(args, "confidence"));
  }
  std::string tenant;
  if (args.Has("tenant")) {
    PCLEAN_ASSIGN_OR_RETURN(tenant, args.One("tenant"));
  }
  // --release names the server-side bind name (directory basename);
  // empty binds the server's default release.
  std::string release;
  if (args.Has("release")) {
    PCLEAN_ASSIGN_OR_RETURN(release, args.One("release"));
  }
  PCLEAN_ASSIGN_OR_RETURN(
      server::Client client,
      server::Client::Connect(socket_path, tenant, release));
  PCLEAN_ASSIGN_OR_RETURN(std::string text, client.Query(request));
  out << text;
  // Polite close; a drain racing the BYE is not this query's failure.
  (void)client.Bye();
  return Status::OK();
}

Status RunQuery(const ParsedArgs& args, std::ostream& out) {
  PCLEAN_RETURN_NOT_OK(args.OnlyFlags(
      "query", {"release", "sql", "direct", "confidence", "threads",
                "bootstrap", "seed", "replace", "ledger", "tenant",
                "connect"}));
  if (args.Has("connect")) return RunServedQuery(args, out);
  PCLEAN_ASSIGN_OR_RETURN(std::string dir, args.One("release"));
  PCLEAN_ASSIGN_OR_RETURN(std::string sql, args.One("sql"));
  QueryOptions options;
  if (args.Has("confidence")) {
    PCLEAN_ASSIGN_OR_RETURN(options.confidence,
                            ParseFlagDouble(args, "confidence"));
  }
  PCLEAN_ASSIGN_OR_RETURN(options.exec, ParseExecOptions(args));
  if (args.Has("bootstrap")) {
    PCLEAN_ASSIGN_OR_RETURN(std::string text, args.One("bootstrap"));
    PCLEAN_ASSIGN_OR_RETURN(int64_t replicates, ParseInt64(text));
    if (replicates < 10) {
      return Status::InvalidArgument("--bootstrap needs >= 10 replicates");
    }
    options.bootstrap_replicates = static_cast<size_t>(replicates);
  }
  if (args.Has("seed")) {
    PCLEAN_ASSIGN_OR_RETURN(std::string seed_text, args.One("seed"));
    PCLEAN_ASSIGN_OR_RETURN(int64_t seed, ParseInt64(seed_text));
    if (seed != 0) options.bootstrap_seed = static_cast<uint64_t>(seed);
  }
  PCLEAN_ASSIGN_OR_RETURN(PrivateTable table, OpenRelease(dir, options.exec));
  for (const std::string& rule : args.All("replace")) {
    PCLEAN_RETURN_NOT_OK(ApplyReplaceRule(&table, rule));
  }
  // Admission control: with a ledger and tenant, the query's epsilon
  // cost is charged durably BEFORE any execution; an overdraft rejects
  // the query (Resource exhausted) with zero side effects on results.
  std::optional<BudgetLedger> ledger;
  std::string tenant;
  if (args.Has("ledger") || args.Has("tenant")) {
    if (!args.Has("ledger") || !args.Has("tenant")) {
      return Status::InvalidArgument(
          "--ledger and --tenant go together: both are needed to charge "
          "a query against a budget");
    }
    PCLEAN_ASSIGN_OR_RETURN(std::string ledger_dir, args.One("ledger"));
    PCLEAN_ASSIGN_OR_RETURN(tenant, args.One("tenant"));
    PCLEAN_ASSIGN_OR_RETURN(ledger, BudgetLedger::Open(ledger_dir));
  }
  // The server answers a QUERY frame through the same function, which is
  // what keeps a served answer byte-identical to this local one.
  return AnswerSqlQuery(table, sql, args.Has("direct"), options,
                        ledger.has_value() ? &*ledger : nullptr, tenant, out);
}

/// Set by SIGTERM/SIGINT while `pclean serve` runs; the serve loop
/// polls it and drains gracefully.
volatile std::sig_atomic_t g_serve_stop = 0;
void HandleServeSignal(int) { g_serve_stop = 1; }

/// `pclean serve <release_dir>... --socket PATH`: the analyst session
/// daemon. Blocks until SIGTERM/SIGINT (or --serve-for-ms elapses, the
/// signal-free bound tests and the soak harness use), then drains:
/// in-flight and buffered queries are answered, every session gets a
/// GOODBYE, and the socket is unlinked.
Status RunServe(const ParsedArgs& args,
                const std::vector<std::string>& release_dirs,
                std::ostream& out) {
  PCLEAN_RETURN_NOT_OK(args.OnlyFlags(
      "serve", {"socket", "ledger", "pool-threads", "threads",
                "idle-timeout-ms", "serve-for-ms"}));
  if (release_dirs.empty()) {
    return Status::InvalidArgument(
        "serve expects at least one release directory");
  }
  server::ServerOptions options;
  PCLEAN_ASSIGN_OR_RETURN(options.socket_path, args.One("socket"));
  options.release_dirs = release_dirs;
  if (args.Has("ledger")) {
    PCLEAN_ASSIGN_OR_RETURN(options.ledger_dir, args.One("ledger"));
  }
  if (args.Has("pool-threads")) {
    PCLEAN_ASSIGN_OR_RETURN(std::string text, args.One("pool-threads"));
    PCLEAN_ASSIGN_OR_RETURN(int64_t threads, ParseInt64(text));
    if (threads < 0) {
      return Status::InvalidArgument("--pool-threads must be >= 0");
    }
    options.pool_threads = static_cast<int>(threads);
  }
  PCLEAN_ASSIGN_OR_RETURN(options.query_exec, ParseExecOptions(args));
  if (args.Has("idle-timeout-ms")) {
    PCLEAN_ASSIGN_OR_RETURN(std::string text, args.One("idle-timeout-ms"));
    PCLEAN_ASSIGN_OR_RETURN(int64_t timeout, ParseInt64(text));
    if (timeout < 0) {
      return Status::InvalidArgument("--idle-timeout-ms must be >= 0");
    }
    options.idle_timeout_ms = static_cast<int>(timeout);
  }
  int64_t serve_for_ms = -1;
  if (args.Has("serve-for-ms")) {
    PCLEAN_ASSIGN_OR_RETURN(std::string text, args.One("serve-for-ms"));
    PCLEAN_ASSIGN_OR_RETURN(serve_for_ms, ParseInt64(text));
    if (serve_for_ms <= 0) {
      return Status::InvalidArgument("--serve-for-ms must be > 0");
    }
  }
  PCLEAN_ASSIGN_OR_RETURN(server::Server srv, server::Server::Start(options));
  out << "serving " << release_dirs.size()
      << (release_dirs.size() == 1 ? " release" : " releases") << " on "
      << srv.socket_path() << "\n";
  out.flush();
  g_serve_stop = 0;
  struct sigaction action;
  struct sigaction old_term;
  struct sigaction old_int;
  std::memset(&action, 0, sizeof action);
  action.sa_handler = HandleServeSignal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, &old_term);
  ::sigaction(SIGINT, &action, &old_int);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(serve_for_ms);
  while (g_serve_stop == 0 &&
         (serve_for_ms < 0 || std::chrono::steady_clock::now() < deadline)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  PCLEAN_RETURN_NOT_OK(srv.Drain());
  out << "drained: " << srv.sessions_accepted() << " sessions, "
      << srv.queries_served() << " queries\n";
  return Status::OK();
}

void PrintTenantBudget(const std::string& tenant, const TenantBudget& budget,
                       std::ostream& out) {
  out << "  " << tenant << "  granted=" << FormatDouble(budget.granted)
      << "  spent=" << FormatDouble(budget.spent)
      << "  remaining=" << FormatDouble(budget.remaining()) << "\n";
}

/// `pclean budget <grant|relax|show>`: crash-safe per-tenant epsilon
/// accounts. grant/relax append a durable WAL record before reporting
/// success; show is read-only.
Status RunBudget(const ParsedArgs& args, const std::string& action,
                 std::ostream& out) {
  PCLEAN_RETURN_NOT_OK(
      args.OnlyFlags("budget", {"ledger", "tenant", "epsilon"}));
  if (action.empty()) {
    return Status::InvalidArgument(
        "budget expects an action: grant, relax, or show");
  }
  PCLEAN_ASSIGN_OR_RETURN(std::string dir, args.One("ledger"));
  PCLEAN_ASSIGN_OR_RETURN(BudgetLedger ledger, BudgetLedger::Open(dir));
  if (action == "show") {
    out << "ledger: " << dir << "\n";
    if (args.Has("tenant")) {
      PCLEAN_ASSIGN_OR_RETURN(std::string tenant, args.One("tenant"));
      PCLEAN_ASSIGN_OR_RETURN(TenantBudget budget, ledger.Budget(tenant));
      PrintTenantBudget(tenant, budget, out);
      return Status::OK();
    }
    PCLEAN_ASSIGN_OR_RETURN(auto tenants, ledger.Snapshot());
    for (const auto& [tenant, budget] : tenants) {
      PrintTenantBudget(tenant, budget, out);
    }
    if (tenants.empty()) out << "  (no tenants)\n";
    return Status::OK();
  }
  if (action != "grant" && action != "relax") {
    return Status::InvalidArgument("unknown budget action '" + action +
                                   "': expected grant, relax, or show");
  }
  PCLEAN_ASSIGN_OR_RETURN(std::string tenant, args.One("tenant"));
  PCLEAN_ASSIGN_OR_RETURN(double epsilon, ParseFlagDouble(args, "epsilon"));
  if (action == "grant") {
    PCLEAN_RETURN_NOT_OK(ledger.Grant(tenant, epsilon));
  } else {
    PCLEAN_RETURN_NOT_OK(ledger.Relax(tenant, epsilon));
  }
  PCLEAN_ASSIGN_OR_RETURN(TenantBudget budget, ledger.Budget(tenant));
  out << action << " epsilon " << FormatDouble(epsilon) << ":\n";
  PrintTenantBudget(tenant, budget, out);
  return Status::OK();
}

}  // namespace

int RunPcleanCli(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    PrintUsage(out);
    return args.empty() ? 1 : 0;
  }
  const std::string& command = args[0];
  // `pclean verify <dir>` takes its release directory positionally;
  // the --release flag form works too. `pclean budget <action>` takes
  // its action positionally.
  // `pclean serve <dir>...` takes its release directories positionally.
  std::string verify_dir;
  std::string budget_action;
  std::vector<std::string> serve_dirs;
  size_t flag_start = 1;
  if (command == "serve") {
    while (flag_start < args.size() &&
           args[flag_start].rfind("--", 0) != 0) {
      serve_dirs.push_back(args[flag_start++]);
    }
  }
  if (command == "verify" && args.size() > 1 &&
      args[1].rfind("--", 0) != 0) {
    verify_dir = args[1];
    flag_start = 2;
  }
  if (command == "budget" && args.size() > 1 &&
      args[1].rfind("--", 0) != 0) {
    budget_action = args[1];
    flag_start = 2;
  }
  auto parsed = ParseFlags(args, flag_start);
  if (!parsed.ok()) {
    err << "pclean: " << parsed.status().ToString() << "\n";
    return 1;
  }
  Status st;
  if (command == "privatize") {
    st = RunPrivatize(*parsed, out);
  } else if (command == "info") {
    st = RunInfo(*parsed, out);
  } else if (command == "query") {
    st = RunQuery(*parsed, out);
  } else if (command == "export") {
    st = RunExport(*parsed, out);
  } else if (command == "verify") {
    st = RunVerify(*parsed, std::move(verify_dir), out);
  } else if (command == "budget") {
    st = RunBudget(*parsed, budget_action, out);
  } else if (command == "serve") {
    st = RunServe(*parsed, serve_dirs, out);
  } else {
    err << "pclean: unknown command '" << command << "'\n";
    PrintUsage(err);
    return 1;
  }
  if (!st.ok()) {
    err << "pclean " << command << ": " << st.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace privateclean
