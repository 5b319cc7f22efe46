// pcbench runs one workload of the end-to-end benchmark and prints a
// host/build stamp line, human-readable metric lines, and last one JSON
// result line. run.py builds and invokes it; README.md documents the
// workloads and metrics.
//
//   pcbench --workload <publish|open_query|serve_scan|serve_churn>
//           --seed N --seconds S --trace 0|1
//           [--rows R] [--setups K] [--work-dir D] [--trace-out FILE]
//   pcbench --selftest
//   pcbench --prepare DIR --workload W --seed N --rows R
//           (a set-up step the workloads run in a child; see lib_calls.h)

#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "lib_calls.h"

namespace pcbench {
namespace {

constexpr const char* kUsage =
    "usage: pcbench --workload <publish|open_query|serve_scan|serve_churn>\n"
    "               --seed N --seconds S --trace 0|1 [--rows R]\n"
    "               [--setups K] [--work-dir DIR] [--trace-out FILE]\n"
    "       pcbench --selftest\n";

/// CPUs this process may run on (what `nproc` prints).
size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) continue;
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t value = line.find_first_not_of(" \t:", line.find(':'));
    return value == std::string::npos ? "" : line.substr(value);
  }
  return "unknown";
}

const char* Sanitizers() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

/// The host and build every result comes from. Results whose stamps
/// differ are not comparable, and `run.py compare` refuses them.
std::string Stamp(size_t nproc) {
  utsname host{};
  uname(&host);
#ifdef PCLEAN_FAILPOINTS_ENABLED
  const bool failpoints = true;
#else
  const bool failpoints = false;
#endif
#ifdef NDEBUG
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"cpu_model\": " + JsonString(CpuModel()) +
         ", \"kernel\": " + JsonString(host.release) +
         ", \"compiler\": " + JsonString(PCBENCH_COMPILER) +
         ", \"build_type\": " + JsonString(PCBENCH_BUILD_TYPE) +
         ", \"assertions\": " + flag(assertions) +
         ", \"failpoints\": " + flag(failpoints) +
         ", \"sanitizers\": " + JsonString(Sanitizers()) + "}";
}

/// The result line: every metric of one list, in BENCHMARK.json order.
/// A per-layer metric the workload does not exercise reads 0 (the
/// `measured:` line before it names those it does); an end-to-end metric
/// must always be measured.
void PrintResult(Report& report, bool trace) {
  const auto names = trace ? PerLayerMetrics() : EndToEndMetrics();
  const auto& values = trace ? report.per_layer : report.end_to_end;
  std::string metrics;
  for (const auto& [name, unit] : names) {
    auto it = values.find(name);
    double value = it == values.end() ? 0.0 : it->second.value;
    if ((!trace && it == values.end()) || !std::isfinite(value)) {
      report.Fail("metric " + name + " was not measured");
      value = 0.0;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + number +
               ", \"unit\": " + JsonString(unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(report.attempted, 1)),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
}

/// The benchmark's own checks: the percentile helper, seeded inputs,
/// and span self times adding up to their op.
int RunSelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  const std::vector<double> ten = {7, 1, 10, 4, 2, 9, 3, 8, 6, 5};
  expect(near(Percentile(ten, 50), 5.5), "p50 of 1..10 is 5.5");
  expect(near(Percentile(ten, 99), 9.91), "p99 of 1..10 is 9.91");
  expect(near(Percentile(ten, 25), 3.25), "p25 of 1..10 is 3.25");
  expect(near(Percentile(ten, 0), 1) && near(Percentile(ten, 100), 10),
         "p0 and p100 are the extremes");
  expect(near(Percentile({42}, 99), 42), "one sample is every percentile");
  expect(near(Median({3, 1, 2}), 2) && near(Median({4, 1, 3, 2}), 2.5),
         "odd and even medians");
  expect(std::isnan(Percentile({}, 50)), "no samples give NaN");

  const std::string relation = GenerateRelationCsv(20000, 7);
  expect(relation == GenerateRelationCsv(20000, 7),
         "the same seed gives a byte-identical relation");
  expect(relation != GenerateRelationCsv(20000, 8),
         "another seed gives another relation");
  expect(relation.rfind("city,state,zip,income\n", 0) == 0 &&
             std::count(relation.begin(), relation.end(), '\n') == 20001,
         "a header and one line per row");

  const ScanSchedule scan(7), scan_again(7), scan_other(8);
  bool same = scan.pool().size() == scan_again.pool().size();
  for (size_t i = 0; same && i < scan.pool().size(); ++i) {
    same = scan.pool()[i].sql == scan_again.pool()[i].sql;
  }
  bool differs = false;
  bool fixed_mix = true;
  for (uint64_t block = 0; block < 500; ++block) {
    int per_class[kNumQueryClasses] = {};
    for (uint64_t j = 0; j < ScanSchedule::kBlock; ++j) {
      const uint64_t i = block * ScanSchedule::kBlock + j;
      same = same && scan.At(i) == scan_again.At(i);
      differs = differs || scan.At(i) != scan_other.At(i);
      ++per_class[static_cast<int>(scan.pool()[scan.At(i)].cls)];
    }
    fixed_mix = fixed_mix && std::all_of(per_class,
                                         per_class + kNumQueryClasses,
                                         [](int n) { return n == 1; });
  }
  expect(same, "the same seed gives the same serve_scan schedule");
  expect(differs, "another seed gives another serve_scan schedule");
  expect(fixed_mix, "every block of 7 queries holds one of each class");

  const ChurnSchedule churn(7), churn_again(7);
  bool churn_same = true;
  bool one_unfunded = true;
  bool one_free = true;
  for (uint64_t block = 0; block < 1000; ++block) {
    int unfunded = 0;
    for (uint64_t j = 0; j < 8; ++j) {
      const ChurnSession a = churn.Session(block * 8 + j);
      const ChurnSession b = churn_again.Session(block * 8 + j);
      churn_same = churn_same && a.tenant == b.tenant &&
                   a.queries == b.queries && a.unfunded == b.unfunded;
      unfunded += a.unfunded;
      one_free = one_free && a.queries.size() == 4 &&
                 std::count(a.queries.begin(), a.queries.end(), 0u) == 1;
    }
    one_unfunded = one_unfunded && unfunded == 1;
  }
  expect(churn_same, "the same seed gives the same session schedule");
  expect(one_unfunded, "exactly one session in 8 is unfunded");
  expect(one_free, "every session has four queries, one of them free");

  const OpenQueryPlan plan = MakeOpenQueryPlan(7);
  const OpenQueryPlan plan_again = MakeOpenQueryPlan(7);
  bool plan_same = plan.merge_from == plan_again.merge_from &&
                   plan.merge_to == plan_again.merge_to &&
                   plan.queries.size() == kNumQueryClasses;
  for (size_t i = 0; plan_same && i < plan.queries.size(); ++i) {
    plan_same = plan.queries[i].sql == plan_again.queries[i].sql &&
                static_cast<size_t>(plan.queries[i].cls) == i;
  }
  expect(plan_same && plan.merge_from != plan.merge_to,
         "open_query's plan is seeded and has one query per class");

  std::thread([] {
    SetThreadTracing(true, 99);
    {
      Span op("op");
      {
        Span x("x");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        Span y("y");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      Span z("z");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    SetThreadTracing(false);
  }).join();
  const LayerTimes lt = AnalyzeSpans(99);
  double self_total = 0;
  for (const auto& [name, ms] : lt.total_ms) self_total += ms;
  expect(lt.total_ms.size() == 4 && std::fabs(self_total - lt.wall_ms) < 1e-6 &&
             lt.total_ms.at("x") >= 2.0 && lt.total_ms.at("y") >= 1.0 &&
             lt.total_ms.at("op") < lt.wall_ms,
         "span self times add up to the op's wall time");

  std::set<std::string> names;
  bool names_ok = true;
  for (const auto& list : {EndToEndMetrics(), PerLayerMetrics()}) {
    for (const auto& [name, unit] : list) {
      names_ok = names_ok && names.insert(name).second && name.size() <= 64 &&
                 unit.size() <= 16;
    }
  }
  expect(names_ok && PerLayerMetrics().size() <= 128,
         "metric names are unique and within the limits");

  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pcbench

int main(int argc, char** argv) {
  using namespace pcbench;
  RunConfig config;
  std::string work_dir = "pcbench-work-" + std::to_string(::getpid());
  std::string trace_out;
  std::string prepare_dir;
  bool selftest = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        config.workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        config.trace = std::stoi(value()) != 0;
      } else if (arg == "--rows") {
        config.rows = std::stoull(value());
      } else if (arg == "--setups") {
        config.setups = std::max(1, std::stoi(value()));
      } else if (arg == "--work-dir") {
        work_dir = value();
      } else if (arg == "--trace-out") {
        trace_out = value();
      } else if (arg == "--selftest") {
        selftest = true;
      } else if (arg == "--prepare") {
        prepare_dir = value();
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcbench: %s\n%s", e.what(), kUsage);
    return 2;
  }
  if (selftest) return RunSelfTest();

  Report (*workload)(const RunConfig&) = nullptr;
  if (config.workload == "publish") workload = RunPublish;
  if (config.workload == "open_query") workload = RunOpenQuery;
  if (config.workload == "serve_scan") workload = RunServeScan;
  if (config.workload == "serve_churn") workload = RunServeChurn;
  if (workload == nullptr) {
    std::fprintf(stderr, "pcbench: unknown workload '%s'\n%s",
                 config.workload.c_str(), kUsage);
    return 2;
  }
  config.nproc = UsableCpus();
  if (!prepare_dir.empty()) return RunPrepare(config, prepare_dir);
  std::printf("stamp: %s\n", Stamp(config.nproc).c_str());
  std::fflush(stdout);

  // Every file a run writes — releases, ledger, socket — lives in the
  // run directory, and paths inside it stay relative and short.
  namespace fs = std::filesystem;
  const fs::path home = fs::current_path();
  const fs::path run_dir = fs::absolute(work_dir);
  const std::string spans_path =
      trace_out.empty() ? "" : fs::absolute(trace_out).string();
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  fs::current_path(run_dir);
  Report report = workload(config);
  fs::current_path(home);
  fs::remove_all(run_dir);

  report.Set("peak_rss_mb", PeakRssMb(), "MiB");
  report.Line("peak_rss_mb", PeakRssMb(), "MiB");
  report.Line("failed_ratio",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              "ratio",
              std::to_string(report.failed) + " of " +
                  std::to_string(report.attempted) + " ops");
  if (config.trace && !spans_path.empty() && !WriteSpans(spans_path)) {
    std::fprintf(stderr, "pcbench: cannot write spans to %s\n",
                 spans_path.c_str());
  }
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  if (config.trace) {
    std::string measured;
    for (const auto& [name, metric] : report.per_layer) measured += " " + name;
    std::printf("measured:%s\n", measured.c_str());
  }
  PrintResult(report, config.trace);
  return 0;
}
