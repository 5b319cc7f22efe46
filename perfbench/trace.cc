// Span recording and analysis, the percentile helper, the run report,
// and the metric lists every run emits.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>

#include "bench.h"

namespace pcbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 100.0) / 100.0 *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

struct SpanRecord {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  // index on the same thread; -1 for a root
  int tag = 0;      // roots only
};

/// One thread's spans, owned by the registry so they outlive the thread.
struct ThreadSpans {
  bool on = false;
  int tag = 0;
  std::vector<SpanRecord> spans;
  std::vector<int> open;
};

std::mutex registry_mu;
std::vector<std::unique_ptr<ThreadSpans>> registry;  // guarded by registry_mu

ThreadSpans& Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mu);
    registry.push_back(std::make_unique<ThreadSpans>());
    local = registry.back().get();
  }
  return *local;
}

// Spans around the provider and local-analyst calls. Each reports .ms,
// .share, and .t1_ms / .tN_ms (traced at 1 and at nproc threads).
const char* const kStagedSpans[] = {
    "table.infer_schema", "table.csv_to_table",
    "privacy.allocate",   "privacy.apply_grr",
    "core.write_release", "core.read_release",
    "core.from_private_relation",
    "cleaning.clean",     "provenance.graph",
    "query.count",        "query.sum",
    "query.avg",          "query.group_by",
    "query.conjunctive",  "query.direct",
    "query.count_all",    "core.render"};

// Client-side round trips of the served path: .ms and .share.
const char* const kServedSpans[] = {
    "server.connect",         "server.bye",
    "server.query.count",     "server.query.sum",
    "server.query.avg",       "server.query.group_by",
    "server.query.conjunctive", "server.query.direct",
    "server.query.count_all", "server.query.charged",
    "server.query.refused",   "server.query.free"};

}  // namespace

Span::Span(std::string name) {
  ThreadSpans& t = Local();
  if (!t.on) return;
  index_ = static_cast<int>(t.spans.size());
  const int parent = t.open.empty() ? -1 : t.open.back();
  t.spans.push_back(
      SpanRecord{std::move(name), 0, 0, parent, parent < 0 ? t.tag : 0});
  t.open.push_back(index_);
  t.spans.back().start = NowS();
}

Span::~Span() {
  if (index_ < 0) return;
  const double end = NowS();
  ThreadSpans& t = Local();
  t.spans[index_].end = end;
  t.open.pop_back();
}

void SetThreadTracing(bool on, int tag) {
  ThreadSpans& t = Local();
  t.on = on;
  t.tag = tag;
}

LayerTimes AnalyzeSpans(int tag) {
  LayerTimes out;
  std::lock_guard<std::mutex> lock(registry_mu);
  for (const auto& thread : registry) {
    const std::vector<SpanRecord>& spans = thread->spans;
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) child_ms[s.parent] += (s.end - s.start) * 1e3;
    }
    // A root's subtree is contiguous: it is recorded between the root's
    // open and close, on one thread.
    std::map<std::string, double> op;
    bool counting = false;
    auto flush = [&] {
      for (const auto& [name, ms] : op) {
        out.per_op_ms[name].push_back(ms);
        out.total_ms[name] += ms;
      }
      op.clear();
    };
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const double ms = (s.end - s.start) * 1e3;
      if (s.parent < 0) {
        flush();
        counting = s.tag == tag;
        if (counting) out.wall_ms += ms;
      }
      if (counting) op[s.name] += ms - child_ms[i];
    }
    flush();
  }
  return out;
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(registry_mu);
  double origin = std::numeric_limits<double>::infinity();
  for (const auto& thread : registry) {
    for (const SpanRecord& s : thread->spans) origin = std::min(origin, s.start);
  }
  std::fprintf(f, "thread\tindex\tparent\ttag\tname\tstart_us\tend_us\n");
  for (size_t t = 0; t < registry.size(); ++t) {
    const std::vector<SpanRecord>& spans = registry[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%d\t%d\t%s\t%.3f\t%.3f\n", t, i, s.parent,
                   s.tag, s.name.c_str(), (s.start - origin) * 1e6,
                   (s.end - origin) * 1e6);
    }
  }
  return std::fclose(f) == 0;
}

void Report::Fail(const std::string& what) {
  correct = false;
  if (++failed <= 10) std::fprintf(stderr, "pcbench: FAILED: %s\n", what.c_str());
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) Fail(what);
}

void Report::Absorb(uint64_t attempted_ops, const Failures& failures) {
  attempted += attempted_ops;
  for (const std::string& what : failures.first) Fail(what);
  failed += failures.count - failures.first.size();
  if (failures.count > 0) correct = false;
}

void Report::Line(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.6g", value);
  lines.push_back(name + " " + text + " " + unit +
                  (note.empty() ? "" : "  (" + note + ")"));
}

std::vector<std::pair<std::string, std::string>> EndToEndMetrics() {
  return {{"op_p50_ms", "ms"},
          {"ops_per_s", "1/s"},
          {"release_bytes_per_row", "B/row"},
          {"peak_rss_mb", "MiB"},
          {"setup_s", "s"}};
}

std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* span : kStagedSpans) {
    const std::string name = span;
    out.insert(out.end(), {{name + ".ms", "ms"},
                           {name + ".share", "share"},
                           {name + ".t1_ms", "ms"},
                           {name + ".tN_ms", "ms"}});
  }
  for (const char* span : kServedSpans) {
    const std::string name = span;
    out.insert(out.end(), {{name + ".ms", "ms"}, {name + ".share", "share"}});
  }
  out.insert(out.end(), {{"server.start.ms", "ms"},
                         {"privacy.grr_regenerations", "count"},
                         {"core.release_bytes", "B"},
                         {"table.memory_bytes", "B"},
                         {"server.sessions_accepted", "count"},
                         {"server.queries_served", "count"},
                         {"ledger.records_per_query", "ratio"},
                         {"admission.refused_ratio", "ratio"},
                         {"trace.unattributed_share", "share"},
                         {"trace.overhead", "ratio"}});
  return out;
}

void AddSpanLayers(Report& report, int tag, size_t nproc, bool staged) {
  auto median = [](const LayerTimes& lt, const std::string& name) {
    auto it = lt.per_op_ms.find(name);
    return it == lt.per_op_ms.end() ? 0.0 : Median(it->second);
  };
  auto share = [](const LayerTimes& lt, const std::string& name) {
    auto it = lt.total_ms.find(name);
    return it == lt.total_ms.end() || lt.wall_ms <= 0
               ? 0.0
               : it->second / lt.wall_ms;
  };
  const LayerTimes at = AnalyzeSpans(tag);
  if (staged) {
    const LayerTimes t1 = AnalyzeSpans(1);
    const LayerTimes tn = AnalyzeSpans(static_cast<int>(nproc));
    for (const char* span : kStagedSpans) {
      const std::string name = span;
      // A span the workload never ran stays unset (it reads 0).
      if (at.total_ms.count(name) == 0) continue;
      report.Layer(name + ".ms", median(at, name), "ms");
      report.Layer(name + ".share", share(at, name), "share");
      report.Layer(name + ".t1_ms", median(t1, name), "ms");
      report.Layer(name + ".tN_ms", median(tn, name), "ms");
      char row[160];
      std::snprintf(row, sizeof(row),
                    "stage %-28s t1_ms %10.3f  tN_ms %10.3f  share %.4f",
                    span, median(t1, name), median(tn, name),
                    share(at, name));
      report.lines.push_back(row);
    }
    report.Line("trace.unattributed_share.t1", share(t1, "op"), "share");
    report.Line("trace.unattributed_share.tN", share(tn, "op"), "share");
  } else {
    for (const char* span : kServedSpans) {
      const std::string name = span;
      if (at.total_ms.count(name) == 0) continue;
      report.Layer(name + ".ms", median(at, name), "ms");
      report.Layer(name + ".share", share(at, name), "share");
      char row[160];
      std::snprintf(row, sizeof(row), "stage %-28s ms %10.3f  share %.4f",
                    span, median(at, name), share(at, name));
      report.lines.push_back(row);
    }
  }
  report.Layer("trace.unattributed_share", share(at, "op"), "share");
}

}  // namespace pcbench
