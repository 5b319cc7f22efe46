// Figure 3: error as a function of query selectivity (fraction of
// distinct values selected by the predicate), paper §8.3.1. PrivateClean
// is most valuable at low selectivities, where skew effects do not
// average out.

#include <cstdio>

#include "bench/harness.h"
#include "datagen/synthetic.h"

using namespace privateclean;
using namespace privateclean::bench;

int main() {
  const std::vector<double> selectivities{0.02, 0.05, 0.1, 0.2, 0.3,
                                          0.5,  0.7,  0.9};

  auto run_panel = [&](bool sum_query) {
    SyntheticOptions options;  // S=1000, N=50, z=2.
    options.correlated = sum_query;  // See §5.5 / fig2 note.
    Rng data_rng(42);
    Table data = *GenerateSynthetic(options, data_rng);
    Series pc{"PrivateClean", {}};
    Series direct{"Direct", {}};
    for (double sel : selectivities) {
      size_t l = std::max<size_t>(1, static_cast<size_t>(sel * 50));
      RandomQuerySpec spec;
      spec.data = &data;
      spec.params = GrrParams::Uniform(0.1, 10.0);
      spec.make_query = [l, sum_query](Rng& rng) {
        Predicate pred = Predicate::In(
            "category", PickPredicateCategories(50, l, 2, rng));
        return sum_query ? AggregateQuery::Sum("value", pred)
                         : AggregateQuery::Count(pred);
      };
      spec.num_queries = 10;
      spec.trials_per_query = 10;
      spec.query_seed = 4243 + l;
      spec.min_predicate_rows = 30;
      spec.seed_base = 17000 + l;
      auto r = RunRandomQueryComparison(spec);
      pc.values.push_back(r.ok() ? r->privateclean_pct : -1);
      direct.values.push_back(r.ok() ? r->direct_pct : -1);
    }
    return std::vector<Series>{pc, direct};
  };

  PrintFigure("Figure 3a: sum error % vs selectivity (p=0.1, b=10)",
              "selectivity", selectivities, run_panel(true));
  PrintFigure("Figure 3b: count error % vs selectivity (p=0.1, b=10)",
              "selectivity", selectivities, run_panel(false));
  return ExitCode();
}
