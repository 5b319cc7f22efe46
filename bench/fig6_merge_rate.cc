// Figure 6: error as a function of the merge rate — the fraction of the
// erroneous values whose repair merges them into *other existing*
// distinct values rather than renaming them back (paper §8.3.2).
// Provenance is most valuable when cleaned values are merged together:
// merges change the predicate's distinct-value selectivity, which Direct
// has no way to see, so its error grows with the merge rate while
// PrivateClean stays flat.

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

  constexpr double kErrorRate = 0.5;  // Fixed total fraction of errors.
  const std::vector<double> merge_fractions{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};

  auto run_panel = [&](bool sum_query) {
    Series pc{"PrivateClean", {}};
    Series direct{"Direct", {}};
    for (double merge_fraction : merge_fractions) {
      Rng inject_rng(6000 + static_cast<uint64_t>(merge_fraction * 100));
      const Table& base = sum_query ? sum_base : count_base;
      InjectionResult injected = *InjectMixedErrors(
          base, "category", kErrorRate, merge_fraction, inject_rng);
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
      spec.query_seed = 4246;
      spec.min_predicate_rows = 50;
      spec.seed_base = 37000 + static_cast<uint64_t>(merge_fraction * 1000);
      auto r = RunRandomQueryComparison(spec);
      pc.values.push_back(r.ok() ? r->privateclean_pct : -1);
      direct.values.push_back(r.ok() ? r->direct_pct : -1);
    }
    return std::vector<Series>{pc, direct};
  };

  PrintFigure(
      "Figure 6a: count error % vs merge rate (error rate 0.5, p=0.1)",
      "merge rate", merge_fractions, run_panel(false));
  PrintFigure(
      "Figure 6b: sum error % vs merge rate (error rate 0.5, p=0.1)",
      "merge rate", merge_fractions, run_panel(true));
  return ExitCode();
}
