#ifndef PRIVATECLEAN_BENCH_HARNESS_H_
#define PRIVATECLEAN_BENCH_HARNESS_H_

#include <functional>
#include <string>
#include <vector>

#include "core/privateclean.h"

namespace privateclean {
namespace bench {

/// One line series of a figure: relative error % per swept x value.
struct Series {
  std::string name;
  std::vector<double> values;
};

/// Prints a paper-style figure as an aligned ASCII table: one row per x
/// value, one column per series (mean relative error %). A negative value
/// marks a failed point (an error is never negative): it prints as
/// "failed" and sets ExitCode() to 1.
void PrintFigure(const std::string& title, const std::string& x_label,
                 const std::vector<double>& xs,
                 const std::vector<Series>& series);

/// Records a failed point that no figure prints, with the reason on
/// stderr, and sets ExitCode() to 1.
void FailPoint(const std::string& what);

/// What every bench's main returns: 1 once any point failed, else 0, so
/// a failed point fails the bench's ctest after every figure printed.
int ExitCode();

/// Specification of one experiment point: privatize `data` with `params`,
/// optionally clean, run `query` against the PrivateClean and Direct
/// estimators, and compare with `truth` (the query on the hypothetically
/// cleaned non-private relation). The paper averages over 100 random
/// private instances (Appendix D); `trials` controls that.
struct ComparisonSpec {
  const Table* data = nullptr;
  GrrParams params;
  GrrOptions grr_options;
  /// Applied to each fresh private table; may be empty.
  std::function<Status(PrivateTable&)> clean;
  AggregateQuery query;
  double truth = 0.0;
  int trials = 100;
  uint64_t seed_base = 10000;
  /// Also evaluate the unweighted-cut variant (PC-U, Figure 7).
  bool include_unweighted = false;
};

/// Mean relative error % per estimator over the trials.
struct ComparisonResult {
  double privateclean_pct = 0.0;
  double direct_pct = 0.0;
  double unweighted_pct = 0.0;  ///< Only when include_unweighted.
  int failed_trials = 0;        ///< Trials skipped due to errors.
};

/// Runs the comparison. Trials whose queries error out (e.g. degenerate
/// counts) are skipped and counted in failed_trials.
Result<ComparisonResult> RunComparison(const ComparisonSpec& spec);

/// Appendix D protocol: "for each instance we run a randomly selected
/// query". Draws `num_queries` random queries, computes each query's
/// ground truth on `truth_table` (the hypothetically cleaned non-private
/// relation; defaults to `data`), runs `trials_per_query` private
/// instances per query, and averages the relative errors.
struct RandomQuerySpec {
  const Table* data = nullptr;
  const Table* truth_table = nullptr;  ///< Defaults to data.
  GrrParams params;
  GrrOptions grr_options;
  std::function<Status(PrivateTable&)> clean;
  /// Draws one query (deterministic given the Rng).
  std::function<AggregateQuery(Rng&)> make_query;
  int num_queries = 10;
  int trials_per_query = 10;
  /// Seed for *query drawing* — keep it constant across the points of a
  /// sweep so every x value is evaluated on the same query set and the
  /// curves are comparable.
  uint64_t query_seed = 777;
  /// Seed base for the private-instance randomness.
  uint64_t seed_base = 10000;
  bool include_unweighted = false;
  /// Queries whose predicate matches fewer than this many rows of the
  /// truth table are redrawn (the paper's queries have ~10% selectivity;
  /// unsupported predicates make relative error meaningless).
  size_t min_predicate_rows = 0;
};

Result<ComparisonResult> RunRandomQueryComparison(
    const RandomQuerySpec& spec);

}  // namespace bench
}  // namespace privateclean

#endif  // PRIVATECLEAN_BENCH_HARNESS_H_
