// Figure 5: error as a function of the data-error rate (fraction of
// distinct values that are erroneous), paper §8.3.2. Errors follow the
// §8.3.2 protocol — half of the erroneous values are renames ("mapped to
// new random distinct values"), half are aliases of other existing
// values ("and other distinct values"). The analyst repairs both kinds
// on the private relation. Direct degrades as the error rate grows
// because the repairs change the predicate's dirty-domain selectivity;
// PrivateClean stays roughly flat thanks to the provenance graph.

#include <cstdio>

#include "bench/harness.h"
#include "cleaning/merge.h"
#include "datagen/error_injection.h"
#include "datagen/synthetic.h"

using namespace privateclean;
using namespace privateclean::bench;

int main() {
  SyntheticOptions options;  // S=1000, N=50, z=2.
  Rng data_rng(42);
  Table count_base = *GenerateSynthetic(options, data_rng);
  SyntheticOptions sum_options = options;
  sum_options.correlated = true;  // See §5.5 / fig2 note.
  Rng sum_rng(43);
  Table sum_base = *GenerateSynthetic(sum_options, sum_rng);

  const std::vector<double> error_rates{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};

  auto run_panel = [&](bool sum_query) {
    Series pc{"PrivateClean", {}};
    Series direct{"Direct", {}};
    for (double rate : error_rates) {
      Rng inject_rng(5000 + static_cast<uint64_t>(rate * 100));
      const Table& base = sum_query ? sum_base : count_base;
      InjectionResult injected = *InjectMixedErrors(
          base, "category", rate, /*merge_fraction=*/0.5, inject_rng);
      auto repair_map = injected.repair_map;
      RandomQuerySpec spec;
      spec.data = &injected.dirty;
      spec.truth_table = &injected.clean;
      spec.params = GrrParams::Uniform(0.1, 10.0);
      spec.clean = [repair_map](PrivateTable& pt) {
        return pt.Clean(FindReplace("category", repair_map));
      };
      const Table* clean_table = &injected.clean;
      spec.make_query = [sum_query, clean_table](Rng& rng) {
        // Queries are phrased over the cleaned domain.
        Domain clean_domain =
            *Domain::FromColumn(*clean_table, "category");
        std::vector<size_t> idx(clean_domain.size());
        for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
        rng.Shuffle(idx);
        std::vector<Value> values;
        for (size_t i = 0; i < std::min<size_t>(5, idx.size()); ++i) {
          values.push_back(clean_domain.value(idx[i]));
        }
        Predicate pred = Predicate::In("category", values);
        return sum_query ? AggregateQuery::Sum("value", pred)
                         : AggregateQuery::Count(pred);
      };
      spec.num_queries = 15;
      spec.trials_per_query = 12;
      spec.query_seed = 4245;
      spec.min_predicate_rows = 50;
      spec.seed_base = 31000 + static_cast<uint64_t>(rate * 1000);
      auto r = RunRandomQueryComparison(spec);
      pc.values.push_back(r.ok() ? r->privateclean_pct : -1);
      direct.values.push_back(r.ok() ? r->direct_pct : -1);
    }
    return std::vector<Series>{pc, direct};
  };

  PrintFigure(
      "Figure 5a: count error % vs data error rate (p=0.1, b=10)",
      "error rate", error_rates, run_panel(false));
  PrintFigure(
      "Figure 5b: sum error % vs data error rate (p=0.1, b=10)",
      "error rate", error_rates, run_panel(true));
  return ExitCode();
}
