// Figure 7: multi-attribute cleaning. The cleaner uses a second
// attribute (section) to resolve missing instructor names — exactly the
// paper's Example 6: the projection transform maps
// (section, NULL) -> (section, instructor_of(section)), so the dirty
// value NULL forks across several clean instructors and the provenance
// graph needs weighted edges (§7). Compares the weighted cut (PC-W,
// §7.2), the unweighted cut (PC-U, the §6.3 vertex count applied
// naively), and Direct, sweeping the fraction of rows with a missing
// instructor.

#include <cstdio>

#include "bench/harness.h"
#include "cleaning/transform.h"
#include "table/table_builder.h"

using namespace privateclean;
using namespace privateclean::bench;

namespace {

constexpr size_t kSections = 30;
constexpr size_t kInstructors = 8;
constexpr size_t kRows = 1000;

const std::string& InstructorForSection(size_t section) {
  static const std::vector<std::string>* kNames =
      new std::vector<std::string>{"Garcia", "Chen",  "Patel", "Kim",
                                   "Okafor", "Silva", "Novak", "Haddad"};
  return (*kNames)[(section * 2654435761u) % kInstructors];
}

/// Builds the dirty relation: rows Zipf-distributed over sections, the
/// instructor implied by the section but NULL with probability
/// `null_rate` (failed data entry).
Table MakeDirty(double null_rate, Rng& rng) {
  Schema schema = *Schema::Make(
      {Field{"section", ValueType::kInt64, AttributeKind::kDiscrete},
       Field::Discrete("instructor"),
       Field::Numerical("score", ValueType::kDouble)});
  ZipfianSampler section_sampler(kSections, 1.5);
  TableBuilder b(schema);
  for (size_t r = 0; r < kRows; ++r) {
    size_t section = section_sampler.Sample(rng);
    Value instructor = rng.Bernoulli(null_rate)
                           ? Value::Null()
                           : Value(InstructorForSection(section));
    b.Row({Value(static_cast<int64_t>(section)), instructor,
           Value(rng.UniformRealRange(0.0, 5.0))});
  }
  return *b.Finish();
}

/// The Example 6 cleaner: impute a missing instructor from the section
/// (a deterministic per-tuple rewrite over the projection
/// (section, instructor)).
ProjectionTransform MakeImputer() {
  return ProjectionTransform(
      {"section", "instructor"},
      [](const std::vector<Value>& tuple) {
        std::vector<Value> out = tuple;
        if (out[1].is_null() && !out[0].is_null()) {
          out[1] = Value(InstructorForSection(
              static_cast<size_t>(out[0].AsInt64())));
        }
        return out;
      });
}

}  // namespace

int main() {
  const std::vector<double> null_rates{0.05, 0.1, 0.2, 0.3, 0.4};

  Series pcw{"PC-W (weighted)", {}};
  Series pcu{"PC-U (unweighted)", {}};
  Series direct{"Direct", {}};
  for (double rate : null_rates) {
    Rng data_rng(800 + static_cast<uint64_t>(rate * 100));
    Table dirty = MakeDirty(rate, data_rng);
    // Ground truth: the same deterministic imputation on the non-private
    // dirty data.
    Table truth_table = dirty.Clone();
    if (!MakeImputer().Apply(&truth_table).ok()) return 1;

    RandomQuerySpec spec;
    spec.data = &dirty;
    spec.truth_table = &truth_table;
    spec.params = GrrParams::Uniform(0.15, 1.0);
    spec.clean = [](PrivateTable& pt) { return pt.Clean(MakeImputer()); };
    spec.make_query = [](Rng& rng) {
      return AggregateQuery::Count(Predicate::Equals(
          "instructor",
          Value(InstructorForSection(rng.UniformInt(kSections)))));
    };
    spec.num_queries = 8;
    spec.trials_per_query = 12;
    spec.query_seed = 4247;
    spec.min_predicate_rows = 30;
    spec.seed_base = 41000 + static_cast<uint64_t>(rate * 1000);
    spec.include_unweighted = true;
    auto r = RunRandomQueryComparison(spec);
    pcw.values.push_back(r.ok() ? r->privateclean_pct : -1);
    pcu.values.push_back(r.ok() ? r->unweighted_pct : -1);
    direct.values.push_back(r.ok() ? r->direct_pct : -1);
  }
  PrintFigure(
      "Figure 7: multi-attribute cleaning (Example 6 imputation), count "
      "error % vs missing-instructor rate (p=0.15)",
      "null rate", null_rates, {pcw, pcu, direct});
  return ExitCode();
}
