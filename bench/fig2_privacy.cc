// Figure 2: relative query result error as a function of the privacy
// parameters (p, b) on the synthetic dataset (paper §8.3.1, defaults
// from Appendix D). Four panels:
//   2a  count error vs discrete privacy p
//   2b  sum   error vs discrete privacy p
//   2c  count error vs numerical privacy b (flat: count ignores b)
//   2d  sum   error vs numerical privacy b (re-weighting gains shrink as
//       the Laplace variance dominates)

#include <cstdio>

#include "bench/harness.h"
#include "datagen/synthetic.h"

using namespace privateclean;
using namespace privateclean::bench;

namespace {

constexpr size_t kNumDistinct = 50;
constexpr size_t kPredicateValues = 5;  // 10% distinct selectivity.

AggregateQuery MakeCountQuery(Rng& rng) {
  return AggregateQuery::Count(Predicate::In(
      "category",
      PickPredicateCategories(kNumDistinct, kPredicateValues, 2, rng)));
}

AggregateQuery MakeSumQuery(Rng& rng) {
  return AggregateQuery::Sum(
      "value", Predicate::In("category", PickPredicateCategories(
                                 kNumDistinct, kPredicateValues, 2, rng)));
}

}  // namespace

int main() {
  SyntheticOptions options;  // Paper defaults: S=1000, N=50, z=2.
  Rng data_rng(42);
  Table data = *GenerateSynthetic(options, data_rng);
  // Sum panels use the correlated variant: the sum-estimation challenge
  // is correlation between the numeric and discrete attributes (§5.5);
  // without it the Direct sum bias vanishes and there is nothing to
  // correct.
  SyntheticOptions sum_options = options;
  sum_options.correlated = true;
  Rng sum_rng(43);
  Table sum_data = *GenerateSynthetic(sum_options, sum_rng);

  const std::vector<double> p_values{0.05, 0.1, 0.15, 0.2, 0.25,
                                     0.3,  0.35, 0.4, 0.45, 0.5};
  const std::vector<double> b_values{0.0, 5.0, 10.0, 15.0, 20.0,
                                     25.0, 30.0, 40.0, 50.0};

  auto run_panel = [&](bool sweep_p, bool sum_query,
                       const std::vector<double>& xs) {
    Series pc{"PrivateClean", {}};
    Series direct{"Direct", {}};
    for (double x : xs) {
      RandomQuerySpec spec;
      spec.data = sum_query ? &sum_data : &data;
      spec.params = sweep_p ? GrrParams::Uniform(x, 10.0)
                            : GrrParams::Uniform(0.1, x);
      spec.make_query = sum_query ? MakeSumQuery : MakeCountQuery;
      spec.num_queries = 10;
      spec.trials_per_query = 10;  // 100 instances per point (App. D).
      spec.query_seed = 4242;
      spec.min_predicate_rows = 50;
      spec.seed_base = 9000 + static_cast<uint64_t>(x * 1000);
      auto r = RunRandomQueryComparison(spec);
      if (!r.ok()) {
        std::fprintf(stderr, "point failed: %s\n",
                     r.status().ToString().c_str());
        pc.values.push_back(-1);
        direct.values.push_back(-1);
        continue;
      }
      pc.values.push_back(r->privateclean_pct);
      direct.values.push_back(r->direct_pct);
    }
    return std::vector<Series>{pc, direct};
  };

  PrintFigure("Figure 2a: count error % vs discrete privacy p (b=10)",
              "p", p_values, run_panel(true, false, p_values));
  PrintFigure("Figure 2b: sum error % vs discrete privacy p (b=10)",
              "p", p_values, run_panel(true, true, p_values));
  PrintFigure("Figure 2c: count error % vs numerical privacy b (p=0.1)",
              "b", b_values, run_panel(false, false, b_values));
  PrintFigure("Figure 2d: sum error % vs numerical privacy b (p=0.1)",
              "b", b_values, run_panel(false, true, b_values));
  return ExitCode();
}
