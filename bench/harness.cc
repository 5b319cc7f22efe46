#include "bench/harness.h"

#include <cmath>
#include <cstdio>

namespace privateclean {
namespace bench {

namespace {

bool failed_point = false;

}  // namespace

void FailPoint(const std::string& what) {
  std::fprintf(stderr, "failed point: %s\n", what.c_str());
  failed_point = true;
}

int ExitCode() { return failed_point ? 1 : 0; }

void PrintFigure(const std::string& title, const std::string& x_label,
                 const std::vector<double>& xs,
                 const std::vector<Series>& series) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-14s", x_label.c_str());
  for (const Series& s : series) {
    std::printf("  %-18s", s.name.c_str());
  }
  std::printf("\n");
  size_t width = 14 + series.size() * 20;
  for (size_t i = 0; i < width; ++i) std::printf("-");
  std::printf("\n");
  for (size_t i = 0; i < xs.size(); ++i) {
    std::printf("%-14.4g", xs[i]);
    for (const Series& s : series) {
      if (i < s.values.size() && s.values[i] < 0.0) {
        std::printf("  %-18s", "failed");
        failed_point = true;
      } else if (i < s.values.size() && std::isfinite(s.values[i])) {
        std::printf("  %-18.3f", s.values[i]);
      } else {
        std::printf("  %-18s", "n/a");
      }
    }
    std::printf("\n");
  }
}

Result<ComparisonResult> RunComparison(const ComparisonSpec& spec) {
  if (spec.data == nullptr) {
    return Status::InvalidArgument("spec.data must be set");
  }
  if (spec.truth == 0.0) {
    return Status::InvalidArgument(
        "spec.truth must be non-zero for relative error");
  }
  ComparisonResult result;
  double pc_total = 0.0, direct_total = 0.0, pcu_total = 0.0;
  int ok_trials = 0;
  for (int t = 0; t < spec.trials; ++t) {
    Rng rng(spec.seed_base + static_cast<uint64_t>(t));
    auto pt_result = PrivateTable::Create(*spec.data, spec.params,
                                          spec.grr_options, rng);
    if (!pt_result.ok()) return pt_result.status();
    PrivateTable pt = std::move(pt_result).ValueOrDie();
    if (spec.clean) {
      Status st = spec.clean(pt);
      if (!st.ok()) return st;
    }
    auto pc = pt.Execute(spec.query);
    auto direct = pt.ExecuteDirect(spec.query);
    if (!pc.ok() || !direct.ok()) {
      ++result.failed_trials;
      continue;
    }
    double pcu_err = 0.0;
    if (spec.include_unweighted) {
      QueryOptions unweighted;
      unweighted.weighted_cut = false;
      auto pcu = pt.Execute(spec.query, unweighted);
      if (!pcu.ok()) {
        // Count the whole trial as failed so all three means share the
        // same denominator.
        ++result.failed_trials;
        continue;
      }
      pcu_err = std::abs(pcu->estimate - spec.truth);
    }
    pc_total += std::abs(pc->estimate - spec.truth);
    direct_total += std::abs(direct->estimate - spec.truth);
    pcu_total += pcu_err;
    ++ok_trials;
  }
  if (ok_trials == 0) {
    return Status::FailedPrecondition("all trials failed");
  }
  double denom = std::abs(spec.truth) * ok_trials;
  result.privateclean_pct = 100.0 * pc_total / denom;
  result.direct_pct = 100.0 * direct_total / denom;
  result.unweighted_pct = 100.0 * pcu_total / denom;
  return result;
}

Result<ComparisonResult> RunRandomQueryComparison(
    const RandomQuerySpec& spec) {
  if (spec.data == nullptr || !spec.make_query) {
    return Status::InvalidArgument("data and make_query must be set");
  }
  const Table* truth_table =
      spec.truth_table != nullptr ? spec.truth_table : spec.data;
  ComparisonResult total;
  int used_queries = 0;
  int attempts = 0;
  const int max_attempts = spec.num_queries * 10;
  for (int q = 0; used_queries < spec.num_queries &&
                  attempts < max_attempts;
       ++q, ++attempts) {
    Rng query_rng(spec.query_seed + 131 * static_cast<uint64_t>(q));
    AggregateQuery query = spec.make_query(query_rng);
    auto truth = ExecuteAggregate(*truth_table, query);
    if (!truth.ok() || std::abs(*truth) < 1e-9) continue;  // Degenerate.
    if (spec.min_predicate_rows > 0 && query.predicate.has_value()) {
      auto support = query.predicate->CountMatches(*truth_table);
      if (!support.ok() || *support < spec.min_predicate_rows) continue;
    }
    ComparisonSpec cspec;
    cspec.data = spec.data;
    cspec.params = spec.params;
    cspec.grr_options = spec.grr_options;
    cspec.clean = spec.clean;
    cspec.query = query;
    cspec.truth = *truth;
    cspec.trials = spec.trials_per_query;
    cspec.seed_base = spec.seed_base + 10007 * static_cast<uint64_t>(q);
    cspec.include_unweighted = spec.include_unweighted;
    auto r = RunComparison(cspec);
    if (!r.ok()) continue;
    total.privateclean_pct += r->privateclean_pct;
    total.direct_pct += r->direct_pct;
    total.unweighted_pct += r->unweighted_pct;
    total.failed_trials += r->failed_trials;
    ++used_queries;
  }
  if (used_queries == 0) {
    return Status::FailedPrecondition("all random queries degenerate");
  }
  total.privateclean_pct /= used_queries;
  total.direct_pct /= used_queries;
  total.unweighted_pct /= used_queries;
  return total;
}

}  // namespace bench
}  // namespace privateclean
