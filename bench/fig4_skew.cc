// Figure 4: error as a function of data skew (Zipfian parameter z),
// paper §8.3.1. PrivateClean's advantage over Direct grows with skew;
// at z ~ 0 (uniform) re-weighting buys nothing for count queries.

#include <cstdio>

#include "bench/harness.h"
#include "datagen/synthetic.h"

using namespace privateclean;
using namespace privateclean::bench;

int main() {
  const std::vector<double> skews{0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0};

  auto run_panel = [&](bool sum_query) {
    Series pc{"PrivateClean", {}};
    Series direct{"Direct", {}};
    for (double z : skews) {
      SyntheticOptions options;
      options.zipf_skew = z;
      options.correlated = sum_query;  // See §5.5 / fig2 note.
      Rng data_rng(42 + static_cast<uint64_t>(z * 10));
      Table data = *GenerateSynthetic(options, data_rng);
      RandomQuerySpec spec;
      spec.data = &data;
      spec.params = GrrParams::Uniform(0.1, 10.0);
      spec.make_query = [sum_query](Rng& rng) {
        Predicate pred = Predicate::In(
            "category", PickPredicateCategories(50, 5, 2, rng));
        return sum_query ? AggregateQuery::Sum("value", pred)
                         : AggregateQuery::Count(pred);
      };
      spec.num_queries = 10;
      spec.trials_per_query = 10;
      spec.query_seed = 4244;
      spec.min_predicate_rows = 50;
      spec.seed_base = 23000 + static_cast<uint64_t>(z * 100);
      auto r = RunRandomQueryComparison(spec);
      pc.values.push_back(r.ok() ? r->privateclean_pct : -1);
      direct.values.push_back(r.ok() ? r->direct_pct : -1);
    }
    return std::vector<Series>{pc, direct};
  };

  PrintFigure("Figure 4a: count error % vs Zipfian skew z (p=0.1, b=10)",
              "z", skews, run_panel(false));
  PrintFigure("Figure 4b: sum error % vs Zipfian skew z (p=0.1, b=10)",
              "z", skews, run_panel(true));
  return ExitCode();
}
