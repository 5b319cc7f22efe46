#ifndef PERFBENCH_LIB_CALLS_H_
#define PERFBENCH_LIB_CALLS_H_

// The library calls the workloads share, each wrapped in the span named
// after the module and call it times, plus the set-up loop and small
// host helpers.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/private_table.h"

namespace pcbench {

/// What one publish reports for the per-layer table.
struct PublishStats {
  uint64_t regenerations = 0;  // GrrOutput::total_regenerations
  size_t memory_bytes = 0;     // the ingested table's Table::MemoryUsage
};

/// The provider path at `threads` threads: InferCsvSchema, CsvToTable,
/// AllocateEpsilonBudget (ε = 3), ApplyGrr with a seeded stream, and a
/// durable WriteRelease into `dir` (a backup swap when `dir` exists).
/// Every call with the same inputs writes the same release bytes.
privateclean::Status PublishOnce(const std::string& csv,
                                 const std::string& dir, size_t threads,
                                 uint64_t seed, PublishStats* stats);

/// ReadRelease then PrivateTable::FromPrivateRelation.
privateclean::Result<privateclean::PrivateTable> OpenTraced(
    const std::string& dir, const privateclean::ExecutionOptions& exec);

/// ProvenanceFor every predicate attribute, so no query builds a graph.
privateclean::Status BuildGraphs(const privateclean::PrivateTable& table,
                                 const privateclean::ExecutionOptions& exec);

/// Runs `query` on a local table and appends its rendering — the text
/// `pclean query` prints and a served RESULT carries — to `out`.
privateclean::Status AnswerQuery(const privateclean::PrivateTable& table,
                                 const BenchQuery& query,
                                 const privateclean::ExecutionOptions& exec,
                                 std::string* out);

/// Table::MemoryUsage: payload plus dictionary bytes.
size_t TableMemoryBytes(const privateclean::Table& table);

/// Bytes of the regular files in `dir` (a release directory is flat).
double DirectoryBytes(const std::string& dir);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// What a served workload checks the server against: the local
/// rendering and ε price of every pool query, and the local table's
/// Table::MemoryUsage.
struct Reference {
  std::vector<std::string> expected;
  std::vector<double> cost;
  size_t table_bytes = 0;
};

/// The analyst workloads' set-up step that belongs to the provider:
/// publishes the `rows`-row release into `dir`/release and, for the
/// served workloads, renders and prices every pool query on a local copy
/// of it into `dir`/reference. It runs as `pcbench --prepare` in a child
/// process, so the provider's publish and the benchmark's own reference
/// copy do not set the analyst process's peak RSS; this returns once the
/// child has ended, with the reference read back (empty for open_query).
Reference PrepareInChild(const RunConfig& config, const std::string& dir,
                         size_t rows);

/// The child's side of PrepareInChild; returns the exit code.
int RunPrepare(const RunConfig& config, const std::string& dir);

std::string ReadFileBytes(const std::string& path);

/// Set-up failures end the run without a result line.
[[noreturn]] void Fatal(const std::string& what);

/// Sets up repeatedly and keeps the last state: `config.setups` times
/// when given, else at least 3 times and on until 2 s of set-up have
/// passed (at most 25), so a set-up of ~0.1 s still yields a steady
/// median. Each set-up runs in a fresh `setup<k>` directory after the
/// previous state is torn down and its directory removed; setup_s is the
/// median set-up time.
template <typename State, typename Make>
std::unique_ptr<State> SetUpRepeatedly(const RunConfig& config,
                                       Report& report, Make make) {
  std::vector<double> seconds;
  std::unique_ptr<State> state;
  double total = 0;
  auto more = [&](int k) {
    if (config.setups > 0) return k < config.setups;
    return k < 3 || (total < 2.0 && k < 25);
  };
  for (int k = 0; more(k); ++k) {
    state.reset();
    if (k > 0) std::filesystem::remove_all("setup" + std::to_string(k - 1));
    const std::string dir = "setup" + std::to_string(k);
    std::filesystem::create_directories(dir);
    const double start = NowS();
    state = make(dir);
    seconds.push_back(NowS() - start);
    total += seconds.back();
  }
  report.Set("setup_s", Median(seconds), "s");
  report.Line("setup_s", Median(seconds), "s",
              "median of " + std::to_string(seconds.size()) + " set-ups");
  return state;
}

/// release_bytes_per_row and core.release_bytes of a committed release.
void AddReleaseMetrics(Report& report, const std::string& release,
                       size_t rows);

/// trace.overhead: traced against untraced median op time, minus one.
void AddTraceOverhead(Report& report, const std::vector<double>& traced_ms,
                      const std::vector<double>& untraced_ms);

}  // namespace pcbench

#endif  // PERFBENCH_LIB_CALLS_H_
