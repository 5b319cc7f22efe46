// Figure 11: the MCAFE workload (paper §8.5, simulated per DESIGN.md).
// The analyst aggregates European countries on the private relation —
// a semantic transformation only possible because GRR keeps values
// human-readable:
//   SELECT count(1)          FROM R WHERE isEurope(country)
//   SELECT avg(enthusiasm)   FROM R WHERE isEurope(country)
// The distinct fraction is high (~21%), the paper's hard regime.

#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "datagen/mcafe.h"
#include "privacy/laplace_mechanism.h"

using namespace privateclean;
using namespace privateclean::bench;

int main() {
  Rng data_rng(406);
  Table data = *GenerateMcafe(McafeOptions{}, data_rng);

  Predicate europe = Predicate::Udf("country", McafeIsEurope);
  double truth_count =
      *ExecuteAggregate(data, AggregateQuery::Count(europe));
  double truth_avg =
      *ExecuteAggregate(data, AggregateQuery::Avg("enthusiasm", europe));
  std::printf("MCAFE: %zu rows, truth count(isEurope)=%.0f, "
              "avg(enthusiasm|Europe)=%.3f\n",
              data.num_rows(), truth_count, truth_avg);

  const std::vector<double> p_values{0.05, 0.1, 0.15, 0.2, 0.3, 0.4};
  Series count_pc{"PC count", {}}, count_direct{"Direct count", {}};
  Series avg_pc{"PC avg", {}}, avg_direct{"Direct avg", {}};

  double delta = *ColumnSensitivity(**data.ColumnByName("enthusiasm"));
  for (double p : p_values) {
    double eps = std::log(3.0 / p - 2.0);
    GrrParams params;
    params.default_p = p;
    params.numeric_b["enthusiasm"] = eps > 0.0 ? delta / eps : 0.0;

    auto run = [&](const AggregateQuery& query, double truth, Series* pc,
                   Series* direct) {
      ComparisonSpec spec;
      spec.data = &data;
      spec.params = params;
      // High distinct fraction violates the Theorem 2 bound; like the
      // paper, run anyway (the regime is the point of the experiment).
      spec.grr_options.ensure_domain_preserved = false;
      spec.query = query;
      spec.truth = truth;
      spec.trials = 100;
      spec.seed_base = 67000 + static_cast<uint64_t>(p * 1000);
      auto r = RunComparison(spec);
      pc->values.push_back(r.ok() ? r->privateclean_pct : -1);
      direct->values.push_back(r.ok() ? r->direct_pct : -1);
    };
    run(AggregateQuery::Count(europe), truth_count, &count_pc,
        &count_direct);
    run(AggregateQuery::Avg("enthusiasm", europe), truth_avg, &avg_pc,
        &avg_direct);
  }

  PrintFigure(
      "Figure 11 (count): MCAFE count(isEurope) error % vs privacy p",
      "p", p_values, {count_pc, count_direct});
  PrintFigure(
      "Figure 11 (avg): MCAFE avg(enthusiasm) error % vs privacy p",
      "p", p_values, {avg_pc, avg_direct});
  return ExitCode();
}
