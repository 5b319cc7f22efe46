// Figure 9: sensitivity to the distinct fraction N/S (paper §8.3.3).
// With a 5% spelling-error rate and all other parameters at their
// defaults, accuracy degrades as the number of distinct values grows;
// past ~50% Direct becomes the better estimator in relative terms.

#include <cstdio>

#include "bench/harness.h"
#include "cleaning/merge.h"
#include "datagen/error_injection.h"
#include "datagen/synthetic.h"

using namespace privateclean;
using namespace privateclean::bench;

int main() {
  const size_t kRows = 1000;
  const std::vector<double> distinct_fractions{0.01, 0.05, 0.1, 0.2,
                                               0.35, 0.5,  0.7, 0.9};

  auto run_panel = [&](bool sum_query) {
    Series pc{"PrivateClean", {}};
    Series direct{"Direct", {}};
    for (double fraction : distinct_fractions) {
      size_t num_distinct = std::max<size_t>(
          2, static_cast<size_t>(fraction * kRows));
      SyntheticOptions options;
      options.num_rows = kRows;
      options.num_distinct = num_distinct;
      options.correlated = sum_query;  // See §5.5 / fig2 note.
      Rng data_rng(70 + num_distinct);
      Table base = *GenerateSynthetic(options, data_rng);
      Rng inject_rng(71 + num_distinct);
      InjectionResult injected = *InjectSpellingErrors(
          base, "category", /*error_rate=*/0.05,
          /*row_corruption_prob=*/0.5, inject_rng);
      auto repair_map = injected.repair_map;
      size_t l = std::max<size_t>(1, num_distinct / 10);

      RandomQuerySpec spec;
      spec.data = &injected.dirty;
      spec.truth_table = &injected.clean;
      // Loosen domain preservation: at high N/S the Theorem 2 bound is
      // violated by construction — exactly the regime this figure probes.
      spec.grr_options.ensure_domain_preserved = false;
      spec.params = GrrParams::Uniform(0.1, 10.0);
      spec.clean = [repair_map](PrivateTable& pt) {
        return pt.Clean(FindReplace("category", repair_map));
      };
      spec.make_query = [num_distinct, l, sum_query](Rng& rng) {
        Predicate pred = Predicate::In(
            "category",
            PickPredicateCategories(num_distinct, l, 2, rng));
        return sum_query ? AggregateQuery::Sum("value", pred)
                         : AggregateQuery::Count(pred);
      };
      spec.num_queries = 10;
      spec.trials_per_query = 10;
      spec.query_seed = 4250 + num_distinct;
      spec.min_predicate_rows = 15;
      spec.seed_base = 59000 + num_distinct;
      auto r = RunRandomQueryComparison(spec);
      pc.values.push_back(r.ok() ? r->privateclean_pct : -1);
      direct.values.push_back(r.ok() ? r->direct_pct : -1);
    }
    return std::vector<Series>{pc, direct};
  };

  PrintFigure(
      "Figure 9a: sum error % vs distinct fraction N/S "
      "(5% error rate, p=0.1, b=10)",
      "N/S", distinct_fractions, run_panel(true));
  PrintFigure(
      "Figure 9b: count error % vs distinct fraction N/S "
      "(5% error rate, p=0.1, b=10)",
      "N/S", distinct_fractions, run_panel(false));
  return ExitCode();
}
