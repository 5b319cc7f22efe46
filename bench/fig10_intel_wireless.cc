// Figure 10: the IntelWireless workload (paper §8.4, simulated per
// DESIGN.md). Spurious sensor ids are merged to NULL on the private
// relation, then:
//   SELECT count(1)   FROM R WHERE sensor_id != NULL
//   SELECT avg(temp)  FROM R WHERE sensor_id != NULL
// Sweeps privacy with the numerical scale b chosen so both attributes
// have the same per-attribute epsilon, as in the paper. The gray
// reference series is the error of querying the *dirty original* data
// with no privacy and no cleaning — past some privacy level the cleaned
// private relation is still more accurate than the dirty raw data.

#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "cleaning/merge.h"
#include "datagen/intel_wireless.h"
#include "privacy/laplace_mechanism.h"

using namespace privateclean;
using namespace privateclean::bench;

int main() {
  Rng data_rng(2024);
  IntelWirelessOptions options;
  options.num_rows = 20000;
  IntelWirelessData data = *GenerateIntelWireless(options, data_rng);
  auto is_spurious = data.is_spurious;

  Predicate pred = Predicate::IsNotNull("sensor_id");
  double truth_count =
      *ExecuteAggregate(data.clean, AggregateQuery::Count(pred));
  double truth_avg =
      *ExecuteAggregate(data.clean, AggregateQuery::Avg("temp", pred));

  // Reference: query the dirty original (no cleaning, no privacy).
  double dirty_count =
      *ExecuteAggregate(data.dirty, AggregateQuery::Count(pred));
  double dirty_avg =
      *ExecuteAggregate(data.dirty, AggregateQuery::Avg("temp", pred));
  double ref_count_pct =
      100.0 * std::abs(dirty_count - truth_count) / truth_count;
  double ref_avg_pct =
      100.0 * std::abs(dirty_avg - truth_avg) / std::abs(truth_avg);

  const std::vector<double> p_values{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5};
  Series count_pc{"PC count", {}}, count_direct{"Direct count", {}};
  Series avg_pc{"PC avg", {}}, avg_direct{"Direct avg", {}};
  Series count_ref{"dirty/no-priv count", {}}, avg_ref{"dirty/no-priv avg",
                                                       {}};

  for (double p : p_values) {
    // epsilon-matched numerical noise: b = delta / ln(3/p - 2), so the
    // temp attribute carries the same epsilon as the id attribute.
    double eps = std::log(3.0 / p - 2.0);
    GrrParams params;
    params.default_p = p;
    params.default_b = 0.0;  // Placeholder; set real scales below.
    const Schema& schema = data.dirty.schema();
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      const Field& f = schema.field(i);
      if (f.kind != AttributeKind::kNumerical) continue;
      double delta = *ColumnSensitivity(data.dirty.column(i));
      params.numeric_b[f.name] = eps > 0.0 ? delta / eps : 0.0;
    }

    auto run = [&](const AggregateQuery& query, double truth, Series* pc,
                   Series* direct) {
      ComparisonSpec spec;
      spec.data = &data.dirty;
      spec.params = params;
      spec.clean = [is_spurious](PrivateTable& pt) {
        return pt.Clean(MergeToNull("sensor_id", is_spurious));
      };
      spec.query = query;
      spec.truth = truth;
      spec.trials = 15;  // 20k rows: fewer trials keep runtime sane.
      spec.seed_base = 61000 + static_cast<uint64_t>(p * 1000);
      auto r = RunComparison(spec);
      pc->values.push_back(r.ok() ? r->privateclean_pct : -1);
      direct->values.push_back(r.ok() ? r->direct_pct : -1);
    };
    run(AggregateQuery::Count(pred), truth_count, &count_pc,
        &count_direct);
    run(AggregateQuery::Avg("temp", pred), truth_avg, &avg_pc,
        &avg_direct);
    count_ref.values.push_back(ref_count_pct);
    avg_ref.values.push_back(ref_avg_pct);
  }

  PrintFigure(
      "Figure 10 (count): IntelWireless count error % vs privacy p "
      "(epsilon-matched b)",
      "p", p_values, {count_pc, count_direct, count_ref});
  PrintFigure(
      "Figure 10 (avg): IntelWireless avg(temp) error % vs privacy p "
      "(epsilon-matched b)",
      "p", p_values, {avg_pc, avg_direct, avg_ref});
  return ExitCode();
}
