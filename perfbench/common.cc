#include "lib_calls.h"

#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <system_error>

#include "core/admission.h"
#include "core/release.h"
#include "core/sql_execution.h"
#include "privacy/allocation.h"
#include "privacy/grr.h"
#include "query/sql.h"
#include "table/csv.h"

extern char** environ;

namespace pcbench {

using privateclean::ExecutionOptions;
using privateclean::PrivateTable;
using privateclean::Result;
using privateclean::Status;

Status PublishOnce(const std::string& csv, const std::string& dir,
                   size_t threads, uint64_t seed, PublishStats* stats) {
  ExecutionOptions exec;
  exec.num_threads = threads;
  privateclean::CsvOptions csv_options;
  csv_options.exec = exec;
  auto schema = Traced("table.infer_schema", [&] {
    return privateclean::InferCsvSchema(csv, csv_options);
  });
  if (!schema.ok()) return schema.status();
  auto table = Traced("table.csv_to_table", [&] {
    return privateclean::CsvToTable(csv, *schema, csv_options);
  });
  if (!table.ok()) return table.status();
  auto params = Traced("privacy.allocate", [&] {
    return privateclean::AllocateEpsilonBudget(*table, 3.0);
  });
  if (!params.ok()) return params.status();
  privateclean::GrrOptions grr_options;
  grr_options.exec = exec;
  privateclean::Rng rng(Mix(seed, 0x6772));
  auto grr = Traced("privacy.apply_grr", [&] {
    return privateclean::ApplyGrr(*table, *params, grr_options, rng);
  });
  if (!grr.ok()) return grr.status();
  Status written = Traced("core.write_release", [&] {
    return privateclean::WriteRelease(*grr, dir, exec);
  });
  if (stats != nullptr) {
    stats->regenerations = grr->total_regenerations;
    stats->memory_bytes = TableMemoryBytes(*table);
  }
  return written;
}

Result<PrivateTable> OpenTraced(const std::string& dir,
                                const ExecutionOptions& exec) {
  auto loaded = Traced("core.read_release",
                       [&] { return privateclean::ReadRelease(dir, exec); });
  if (!loaded.ok()) return loaded.status();
  return Traced("core.from_private_relation", [&] {
    return PrivateTable::FromPrivateRelation(std::move(loaded->relation),
                                             std::move(loaded->metadata));
  });
}

Status BuildGraphs(const PrivateTable& table, const ExecutionOptions& exec) {
  Span span("provenance.graph");
  for (const char* attribute : {"city", "state", "zip"}) {
    auto graph = table.ProvenanceFor(attribute, exec);
    if (!graph.ok()) return graph.status();
  }
  return Status::OK();
}

Status AnswerQuery(const PrivateTable& table, const BenchQuery& query,
                   const ExecutionOptions& exec, std::string* out) {
  privateclean::QueryOptions options;
  options.exec = exec;
  auto rs = Traced(std::string("query.") + QueryClassName(query.cls), [&] {
    return query.direct
               ? privateclean::ExecuteSqlQueryDirect(table, query.sql, exec)
               : privateclean::ExecuteSqlQuery(table, query.sql, options);
  });
  if (!rs.ok()) return rs.status();
  Span span("core.render");
  std::ostringstream text;
  privateclean::RenderSqlResultText(*rs, query.direct, options.confidence,
                                    text);
  *out += text.str();
  return Status::OK();
}

size_t TableMemoryBytes(const privateclean::Table& table) {
  const privateclean::ColumnMemory m = table.MemoryUsage();
  return m.payload_bytes + m.dictionary_bytes;
}

double DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return static_cast<double>(total);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Reference PrepareInChild(const RunConfig& config, const std::string& dir,
                         size_t rows) {
  const std::vector<std::string> args = {
      "pcbench", "--prepare", dir, "--workload", config.workload,
      "--seed", std::to_string(config.seed), "--rows", std::to_string(rows)};
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                                  argv.data(), environ);
  if (spawned != 0) {
    Fatal("cannot start the set-up child: " + std::string(strerror(spawned)));
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) Fatal("waiting for the set-up child failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fatal("the set-up child failed (wait status " + std::to_string(status) +
          ")");
  }
  Reference ref;
  if (config.workload == "open_query") return ref;
  // One header line with the table bytes, then per pool query a line
  // "<price> <bytes>" followed by that many bytes of rendering.
  std::ifstream in(dir + "/reference", std::ios::binary);
  std::string head;
  if (!(in >> head >> ref.table_bytes) || head != "table_bytes") {
    Fatal("the set-up child wrote no reference");
  }
  double cost = 0;
  size_t bytes = 0;
  while (in >> cost >> bytes && in.get() == '\n') {
    std::string text(bytes, '\0');
    if (!in.read(text.data(), static_cast<std::streamsize>(bytes))) break;
    ref.cost.push_back(cost);
    ref.expected.push_back(std::move(text));
  }
  return ref;
}

int RunPrepare(const RunConfig& config, const std::string& dir) {
  // Ends with the benchmark process even if that is killed mid-set-up.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  ExecutionOptions exec;
  exec.num_threads = config.nproc;
  const std::string release = dir + "/release";
  {
    const std::string csv = GenerateRelationCsv(config.rows, config.seed);
    Status published =
        PublishOnce(csv, release, config.nproc, config.seed, nullptr);
    if (!published.ok()) Fatal("set-up publish: " + published.ToString());
  }
  if (config.workload == "open_query") return 0;
  const std::vector<BenchQuery> pool = config.workload == "serve_scan"
                                           ? ScanSchedule(config.seed).pool()
                                           : ChurnSchedule(config.seed).pool();
  auto table = OpenTraced(release, exec);
  if (!table.ok()) Fatal("set-up open: " + table.status().ToString());
  Status graphs = BuildGraphs(*table, exec);
  if (!graphs.ok()) Fatal("set-up provenance: " + graphs.ToString());
  std::FILE* out = std::fopen((dir + "/reference").c_str(), "wb");
  if (out == nullptr) Fatal("cannot write " + dir + "/reference");
  std::fprintf(out, "table_bytes %zu\n", TableMemoryBytes(table->relation()));
  for (const BenchQuery& query : pool) {
    std::string text;
    Status answered = AnswerQuery(*table, query, exec, &text);
    if (!answered.ok()) {
      Fatal("set-up answer to '" + query.sql + "': " + answered.ToString());
    }
    auto parsed = privateclean::ParseSql(query.sql);
    if (!parsed.ok()) Fatal("set-up parse: " + parsed.status().ToString());
    auto cost = privateclean::QueryEpsilonCost(*table, *parsed);
    if (!cost.ok()) Fatal("set-up pricing: " + cost.status().ToString());
    std::fprintf(out, "%.17g %zu\n", *cost, text.size());
    std::fwrite(text.data(), 1, text.size(), out);
  }
  if (std::fclose(out) != 0) Fatal("cannot write " + dir + "/reference");
  return 0;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "pcbench: %s\n", what.c_str());
  std::fflush(nullptr);
  // Server and pool threads may still run: skip static destructors.
  std::_Exit(1);
}

void AddReleaseMetrics(Report& report, const std::string& release,
                       size_t rows) {
  const double bytes = DirectoryBytes(release);
  report.Set("release_bytes_per_row", bytes / static_cast<double>(rows),
             "B/row");
  report.Layer("core.release_bytes", bytes, "B");
  report.Line("release_bytes_per_row", bytes / static_cast<double>(rows),
              "B/row", std::to_string(static_cast<uint64_t>(bytes)) +
                           " bytes for " + std::to_string(rows) + " rows");
}

void AddTraceOverhead(Report& report, const std::vector<double>& traced_ms,
                      const std::vector<double>& untraced_ms) {
  const double overhead = Median(traced_ms) / Median(untraced_ms) - 1.0;
  report.Layer("trace.overhead", overhead, "ratio");
  report.Line("trace.overhead", overhead, "ratio",
              std::to_string(traced_ms.size()) + " traced vs " +
                  std::to_string(untraced_ms.size()) + " untraced ops");
}

}  // namespace pcbench
