// Ablation / validation for the Appendix E tuning algorithm: for a
// sweep of target count-error levels, tune (p, b), privatize, and
// measure the worst observed count error over many random queries and
// private instances. The Eq. 4 bound is a 95%-confidence bound on the
// *selectivity-scale* error of any count query, so the empirical 95th
// percentile must sit at or below the target.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "datagen/synthetic.h"

using namespace privateclean;
using namespace privateclean::bench;

int main() {
  SyntheticOptions options;
  options.num_rows = 2000;
  Rng data_rng(11);
  Table data = *GenerateSynthetic(options, data_rng);
  double s = static_cast<double>(data.num_rows());

  const std::vector<double> targets{0.05, 0.08, 0.12, 0.2};
  std::printf("\n=== Appendix E tuning validation (S=%zu, N=%zu) ===\n",
              data.num_rows(), options.num_distinct);
  std::printf("%-10s %-8s %-10s %-16s %-16s\n", "target", "p",
              "eps/attr", "95th pct error", "bound holds");

  for (double target : targets) {
    auto tuning = TunePrivacyParameters(data, target, 0.95);
    if (!tuning.ok()) {
      std::printf("%-10.3f (unattainable: %s)\n", target,
                  tuning.status().message().c_str());
      FailPoint("tuning for target " + std::to_string(target) + ": " +
                tuning.status().ToString());
      continue;
    }
    // Collect selectivity-scale count errors over random queries and
    // instances.
    std::vector<double> errors;
    Rng query_rng(21);
    for (int q = 0; q < 20; ++q) {
      size_t l = 1 + query_rng.UniformInt(25);
      Predicate pred = Predicate::In(
          "category",
          PickPredicateCategories(options.num_distinct, l, 2, query_rng));
      double truth = *ExecuteAggregate(data, AggregateQuery::Count(pred));
      for (int t = 0; t < 10; ++t) {
        Rng rng(31000 + 100 * q + t);
        auto pt = PrivateTable::Create(data, ToGrrParams(*tuning),
                                       GrrOptions{}, rng);
        auto r = pt.ok() ? pt->Count(pred) : Result<QueryResult>(pt.status());
        if (!r.ok()) {
          FailPoint("target " + std::to_string(target) + ": " +
                    r.status().ToString());
          continue;
        }
        errors.push_back(std::abs(r->estimate - truth) / s);
      }
    }
    std::sort(errors.begin(), errors.end());
    double p95 = errors.empty()
                     ? 0.0
                     : errors[static_cast<size_t>(0.95 * errors.size())];
    std::printf("%-10.3f %-8.3f %-10.3f %-16.4f %-16s\n", target,
                tuning->p, tuning->per_attribute_epsilon, p95,
                p95 <= target ? "yes" : "NO");
  }
  std::printf("\n(errors are in selectivity units, |est-truth|/S, as in "
              "Eq. 4)\n");
  return ExitCode();
}
