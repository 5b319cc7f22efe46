#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared declarations of the end-to-end benchmark (README.md has the
// workloads, metrics and layer map). The benchmark calls the library
// only through its public headers; every call into a module is wrapped
// in a Span when the run is traced.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pcbench {

// ------------------------------------------------------------------ clock

/// Seconds on the monotonic clock.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ stats

/// The q-th percentile (q in [0, 100]) of `values`, interpolating
/// linearly between closest ranks (NumPy's default method). NaN when
/// `values` is empty.
double Percentile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

// -------------------------------------------------------------- generator

/// Rows of the relation publish, open_query and serve_scan run on.
inline constexpr size_t kLargeRows = 1000000;
/// Rows of serve_churn's relation: its encoded columns fit in L2.
inline constexpr size_t kSmallRows = 10000;

/// Deterministic hash of (seed, a, b). All benchmark inputs derive from
/// it, so they never depend on the library's own random generator.
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b = 0);

/// The benchmark relation as CSV text, header `city,state,zip,income`:
/// city Zipf(1) over 50 values, state uniform over 20, zip Zipf(1.5) over
/// 2000, income a log-normal amount with two decimals.
std::string GenerateRelationCsv(size_t rows, uint64_t seed);

enum class QueryClass {
  kCount,        // corrected COUNT, one attribute
  kSum,          // corrected SUM(income), one attribute
  kAvg,          // corrected AVG(income), one attribute
  kGroupBy,      // corrected GROUP BY count
  kConjunctive,  // two-attribute COUNT (§10 estimator)
  kDirect,       // Direct baseline: income range AND state
  kCountAll,     // free COUNT(1)
};
inline constexpr int kNumQueryClasses = 7;
const char* QueryClassName(QueryClass cls);

struct BenchQuery {
  QueryClass cls = QueryClass::kCount;
  std::string sql;
  bool direct = false;  // run through the Direct baseline
};

/// Query `variant` of a class; literals derive from (seed, variant).
/// Variant 0 of kGroupBy groups by zip.
BenchQuery MakeQuery(QueryClass cls, uint64_t seed, uint64_t variant);

/// What open_query runs per op: one find-and-replace clean on city, then
/// one corrected query of each class (the COUNT reads the merged value).
struct OpenQueryPlan {
  std::string merge_from;
  std::string merge_to;
  std::vector<BenchQuery> queries;
};
OpenQueryPlan MakeOpenQueryPlan(uint64_t seed);

/// serve_scan's query stream: query i of the stream is pool()[At(i)].
/// Every block of 7 consecutive queries holds one query of each class,
/// in a seeded order, and block b asks each class's variant b mod its
/// variant count, so any prefix of the stream has the same mix whichever
/// client thread pulled which query.
class ScanSchedule {
 public:
  static constexpr size_t kBlock = kNumQueryClasses;

  explicit ScanSchedule(uint64_t seed);
  const std::vector<BenchQuery>& pool() const { return pool_; }
  size_t At(uint64_t i) const;

 private:
  uint64_t order_seed_;
  std::vector<BenchQuery> pool_;
  size_t offset_[kNumQueryClasses] = {};
  size_t variants_[kNumQueryClasses] = {};
};

/// One serve_churn session: its tenant and four queries (pool indices).
struct ChurnSession {
  bool unfunded = false;
  std::string tenant;
  std::vector<size_t> queries;
};

/// serve_churn's session stream. Pool entry 0 is the free COUNT(1); the
/// rest are charged single-attribute COUNTs. Each session runs three
/// charged COUNTs and the free one in a seeded order; exactly one
/// session in every block of 8 belongs to the unfunded tenant.
class ChurnSchedule {
 public:
  static constexpr int kFundedTenants = 7;
  static constexpr const char* kUnfundedTenant = "nobudget";

  explicit ChurnSchedule(uint64_t seed);
  const std::vector<BenchQuery>& pool() const { return pool_; }
  ChurnSession Session(uint64_t s) const;
  static std::string FundedTenant(int i) {
    std::string name = "t";
    name += std::to_string(i);
    return name;
  }

 private:
  uint64_t seed_;
  std::vector<BenchQuery> pool_;
};

// ------------------------------------------------------------------ trace

/// A timed region around one call into a module's public API, recorded
/// only on threads whose tracing is on (see SetThreadTracing). A span's
/// parent is the innermost span open on the same thread; spans stay in
/// memory until WriteSpans.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// Runs `fn` inside a span named `name` and returns its result.
template <typename F>
auto Traced(std::string name, F&& fn) {
  Span span(std::move(name));
  return fn();
}

/// Turns span recording on or off for the calling thread. Root spans
/// opened while on carry `tag` (the thread count an op ran at).
void SetThreadTracing(bool on, int tag = 0);

/// Per-layer view of the recorded spans whose root carries `tag`. A
/// root span is one op (or, for roots not named "op", a standalone call
/// such as a session connect). A span's self time is its duration minus
/// the time its child spans cover; an "op" root's self time is the part
/// of the op no layer span accounts for.
struct LayerTimes {
  double wall_ms = 0;                                    // root durations
  std::map<std::string, std::vector<double>> per_op_ms;  // self ms per root
  std::map<std::string, double> total_ms;                // summed self ms
};
LayerTimes AnalyzeSpans(int tag);

/// Writes every recorded span as TSV (thread, index, parent, tag, name,
/// start_us, end_us). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path);

// ----------------------------------------------------------------- report

struct Metric {
  double value = 0;
  std::string unit;
};

/// Failed ops of one client thread: how many, and the first messages.
struct Failures {
  uint64_t count = 0;
  std::vector<std::string> first;
  void Add(std::string what) {
    if (count++ < 5) first.push_back(std::move(what));
  }
};

/// One run's outcome: the checked-op counters, the end-to-end and
/// per-layer metrics, and human-readable lines printed before the
/// result line.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> lines;

  void Set(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
  /// Records one failed op or check, printing the first few to stderr.
  void Fail(const std::string& what);
  /// Counts one end-of-run check, failing the run when `ok` is false.
  void Check(bool ok, const std::string& what);
  /// Adds `attempted` ops of which `failures.count` failed.
  void Absorb(uint64_t attempted_ops, const Failures& failures);
  /// Adds a human-readable "name value unit" line.
  void Line(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
};

/// How one run is configured (parsed from the command line).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t nproc = 1;
  size_t rows = 0;  // 0 = the workload's default size
  int setups = 0;   // set-ups per run (0: see SetUpRepeatedly)
};

/// The end-to-end and per-layer metric names with their units, in
/// BENCHMARK.json order. Every run emits all of one list.
std::vector<std::pair<std::string, std::string>> EndToEndMetrics();
std::vector<std::pair<std::string, std::string>> PerLayerMetrics();

/// Adds the span-derived per-layer metrics of the roots tagged `tag`:
/// `<span>.ms` (median self time per op) and `<span>.share` (share of
/// the ops' wall time) for the served spans, or with `staged` for the
/// provider and local-analyst spans, plus `.t1_ms` and `.tN_ms` from
/// the ops traced at 1 and at `nproc` threads.
void AddSpanLayers(Report& report, int tag, size_t nproc, bool staged);

/// The workloads. Each runs `config.setups` set-ups (keeping the last),
/// then the closed loop for `config.seconds`, then its end-of-run checks.
Report RunPublish(const RunConfig& config);
Report RunOpenQuery(const RunConfig& config);
Report RunServeScan(const RunConfig& config);
Report RunServeChurn(const RunConfig& config);

}  // namespace pcbench

#endif  // PERFBENCH_BENCH_H_
