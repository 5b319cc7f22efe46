// Mechanism shootout: count-query utility versus the per-attribute
// privacy budget ε for both mechanism families, on the paper's synthetic
// defaults (S=1000, N=50, z=2). Each family is calibrated to spend the
// same per-attribute ε through ParamForEpsilon — grr via the paper
// inversion p = 3/(e^ε + 2), hlm by construction — so the columns
// compare utility at equal *nominal* budget under each family's own
// accounting. Caveat for reading the figure: grr's paper accounting
// understates its exact ε for N > 3 (here N = 50), so its lower error
// comes from silently spending more real privacy; hlm is the honest
// curve (exact ε equals the target). The statistical suite pins these
// calibration facts exactly. Exits 1 if any point fails to run.

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

}  // namespace

int main() {
  SyntheticOptions options;
  Rng data_rng(42);
  Table data = *GenerateSynthetic(options, data_rng);

  const std::vector<double> eps_values{0.5, 1.0, 2.0, 3.0, 5.0};

  std::vector<Series> series;
  for (MechanismFamily family : kMechanismFamilies) {
    Series s{MechanismName(family), {}};
    for (double eps : eps_values) {
      RandomQuerySpec spec;
      spec.data = &data;
      spec.params =
          GrrParams::Uniform(*ParamForEpsilon(family, eps), 10.0);
      spec.grr_options.mechanism = family;
      spec.make_query = MakeCountQuery;
      spec.num_queries = 10;
      spec.trials_per_query = 10;
      spec.query_seed = 4242;  // Same query set for every family.
      spec.min_predicate_rows = 50;
      spec.seed_base = 17000 + static_cast<uint64_t>(eps * 1000);
      auto r = RunRandomQueryComparison(spec);
      if (!r.ok()) {
        std::fprintf(stderr, "%s at eps=%g failed: %s\n",
                     MechanismName(family), eps,
                     r.status().ToString().c_str());
        s.values.push_back(-1);
        continue;
      }
      s.values.push_back(r->privateclean_pct);
    }
    series.push_back(std::move(s));
  }

  PrintFigure(
      "Mechanism shootout: count error % vs per-attribute epsilon "
      "(equal nominal budget)",
      "eps", eps_values, series);
  return ExitCode();
}
