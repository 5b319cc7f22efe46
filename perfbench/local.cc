// The provider path (publish) and the local analyst path (open_query):
// closed loops of one caller.

#include <sched.h>

#include <string>
#include <vector>

#include "bench.h"
#include "cleaning/merge.h"
#include "core/release.h"
#include "lib_calls.h"

namespace pcbench {
namespace {

using privateclean::ExecutionOptions;
using privateclean::Status;

/// Op times of a one-caller closed loop.
struct LoopTimes {
  std::vector<double> untraced_ms;  // at the workload's thread count
  std::vector<double> traced_ms;    // traced, at the workload's count
  uint64_t done = 0;                // ops that ran and passed their checks
  double elapsed_s = 0;             // loop start to the last such op's end
};

/// Runs `run(threads)` back to back for `config.seconds`; only that call
/// is timed, then `check(threads)` verifies its output. A traced run
/// cycles untraced / traced at 1 thread / traced at nproc threads, and
/// stops only after a whole cycle, which gives every stage its t1 and tN
/// times and the tracing overhead.
///
/// A one-thread op runs on the k-th usable CPU, k cycling with each such
/// op. On the 4-vCPU host this was tuned on, one vCPU ran the same op
/// 15-30% slower than the others, so a run's median depended on which
/// CPU the scheduler happened to leave the caller on; rotating makes
/// every run sample each CPU alike. Ops at more threads are not pinned.
template <typename Run, typename Check>
LoopTimes RunSerialLoop(const RunConfig& config, size_t threads,
                        Report& report, Run run, Check check) {
  struct Mode {
    bool traced;
    size_t threads;
  };
  std::vector<Mode> cycle = {{false, threads}};
  if (config.trace) {
    cycle = {{false, threads}, {true, 1}, {true, config.nproc}};
  }
  cpu_set_t usable;
  CPU_ZERO(&usable);
  sched_getaffinity(0, sizeof(usable), &usable);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &usable)) cpus.push_back(c);
  }
  size_t one_thread_ops = 0;
  LoopTimes times;
  const double start = NowS();
  const double deadline = start + config.seconds;
  double last_end = start;
  for (size_t i = 0;; ++i) {
    if (i > 0 && i % cycle.size() == 0 && NowS() >= deadline) break;
    const Mode& mode = cycle[i % cycle.size()];
    const bool pinned = mode.threads == 1 && !cpus.empty();
    if (pinned) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[one_thread_ops++ % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    SetThreadTracing(mode.traced, static_cast<int>(mode.threads));
    Status status;
    const double t0 = NowS();
    {
      Span op("op");
      status = run(mode.threads);
    }
    const double t1 = NowS();
    SetThreadTracing(false);
    // Restored before any op that borrows pool threads: a pool created
    // now would inherit the pinned set.
    if (pinned) sched_setaffinity(0, sizeof(usable), &usable);
    ++report.attempted;
    if (!status.ok()) {
      report.Fail("op at " + std::to_string(mode.threads) +
                  " threads: " + status.ToString());
      continue;
    }
    if (!check(mode.threads)) continue;
    ++times.done;
    last_end = t1;
    const double ms = (t1 - t0) * 1e3;
    if (!mode.traced) {
      times.untraced_ms.push_back(ms);
    } else if (mode.threads == threads) {
      times.traced_ms.push_back(ms);
    }
  }
  times.elapsed_s = last_end - start;
  return times;
}

/// op_p50_ms and ops_per_s of a one-caller loop; returns ops per second.
double AddLoopMetrics(Report& report, const LoopTimes& times,
                      const std::string& latency_name) {
  const double p50 = Median(times.untraced_ms);
  const double rate =
      times.elapsed_s > 0 ? static_cast<double>(times.done) / times.elapsed_s
                          : 0.0;
  report.Set("op_p50_ms", p50, "ms");
  report.Set("ops_per_s", rate, "1/s");
  report.Line(latency_name, p50, "ms",
              std::to_string(times.untraced_ms.size()) + " untraced ops");
  return rate;
}

/// open_query's op, as `pclean query` runs it: open the release, clean,
/// build the provenance graphs, then answer and render one query of
/// each class.
Status OpenQueryOnce(const std::string& release, size_t threads,
                     const OpenQueryPlan& plan, std::string* answers,
                     size_t* memory_bytes) {
  ExecutionOptions exec;
  exec.num_threads = threads;
  auto table = OpenTraced(release, exec);
  if (!table.ok()) return table.status();
  if (memory_bytes != nullptr) {
    *memory_bytes = TableMemoryBytes(table->relation());
  }
  Status cleaned = Traced("cleaning.clean", [&] {
    return table->Clean(privateclean::FindReplace::Single(
        "city", privateclean::Value(plan.merge_from),
        privateclean::Value(plan.merge_to)));
  });
  if (!cleaned.ok()) return cleaned;
  Status graphs = BuildGraphs(*table, exec);
  if (!graphs.ok()) return graphs;
  for (const BenchQuery& query : plan.queries) {
    Status answered = AnswerQuery(*table, query, exec, answers);
    if (!answered.ok()) return answered;
  }
  return Status::OK();
}

}  // namespace

Report RunPublish(const RunConfig& config) {
  Report report;
  const size_t rows = config.rows > 0 ? config.rows : kLargeRows;
  struct State {
    std::string csv;
    std::string release;
    std::string manifest;  // the warm-up op's MANIFEST bytes
  };
  auto state = SetUpRepeatedly<State>(config, report, [&](const std::string&
                                                              dir) {
    auto s = std::make_unique<State>();
    s->csv = GenerateRelationCsv(rows, config.seed);
    s->release = dir + "/release";
    // The warm-up op also writes the release every timed op replaces
    // through the backup-swap commit.
    Status published =
        PublishOnce(s->csv, s->release, config.nproc, config.seed, nullptr);
    if (!published.ok()) Fatal("warm-up publish: " + published.ToString());
    s->manifest = ReadFileBytes(s->release + "/MANIFEST");
    return s;
  });

  PublishStats stats;
  const LoopTimes times = RunSerialLoop(
      config, config.nproc, report,
      [&](size_t threads) {
        return PublishOnce(state->csv, state->release, threads, config.seed,
                           &stats);
      },
      [&](size_t threads) {
        if (ReadFileBytes(state->release + "/MANIFEST") == state->manifest) {
          return true;
        }
        report.Fail("the MANIFEST written at " + std::to_string(threads) +
                    " threads differs from the first op's");
        return false;
      });

  // Once per run, outside the timed ops: the final release verifies.
  auto verified = privateclean::VerifyRelease(state->release);
  report.Check(verified.ok() && verified->status.ok(),
               "VerifyRelease of the final release: " +
                   (verified.ok() ? verified->status.ToString()
                                  : verified.status().ToString()));

  const double rate = AddLoopMetrics(report, times, "publish_ms");
  report.Line("publish_rows_per_s", rate * static_cast<double>(rows),
              "rows/s");
  AddReleaseMetrics(report, state->release, rows);
  if (config.trace) {
    AddSpanLayers(report, static_cast<int>(config.nproc), config.nproc,
                  /*staged=*/true);
    report.Layer("privacy.grr_regenerations",
                 static_cast<double>(stats.regenerations), "count");
    report.Layer("table.memory_bytes",
                 static_cast<double>(stats.memory_bytes), "B");
    AddTraceOverhead(report, times.traced_ms, times.untraced_ms);
  }
  return report;
}

Report RunOpenQuery(const RunConfig& config) {
  Report report;
  const size_t rows = config.rows > 0 ? config.rows : kLargeRows;
  const OpenQueryPlan plan = MakeOpenQueryPlan(config.seed);
  struct State {
    std::string release;
    std::string answers;  // the warm-up op's rendered answers
  };
  auto state = SetUpRepeatedly<State>(config, report, [&](const std::string&
                                                              dir) {
    auto s = std::make_unique<State>();
    s->release = dir + "/release";
    PrepareInChild(config, dir, rows);
    // Warm-up op at the CLI's single thread; its answers are the
    // reference every timed op must reproduce byte for byte.
    Status answered = OpenQueryOnce(s->release, 1, plan, &s->answers, nullptr);
    if (!answered.ok()) Fatal("warm-up op: " + answered.ToString());
    return s;
  });

  std::string answers;
  size_t memory_bytes = 0;
  const LoopTimes times = RunSerialLoop(
      config, 1, report,
      [&](size_t threads) {
        answers.clear();
        return OpenQueryOnce(state->release, threads, plan, &answers,
                             &memory_bytes);
      },
      [&](size_t threads) {
        if (answers == state->answers) return true;
        report.Fail("the answers at " + std::to_string(threads) +
                    " threads differ from the first op's");
        return false;
      });

  AddLoopMetrics(report, times, "answer_p50_ms");
  AddReleaseMetrics(report, state->release, rows);
  if (config.trace) {
    AddSpanLayers(report, 1, config.nproc, /*staged=*/true);
    report.Layer("table.memory_bytes", static_cast<double>(memory_bytes), "B");
    AddTraceOverhead(report, times.traced_ms, times.untraced_ms);
  }
  return report;
}

}  // namespace pcbench
